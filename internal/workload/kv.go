package workload

import (
	"fmt"

	"sprwl/internal/alloc"
	"sprwl/internal/env"
	"sprwl/internal/locktable"
	"sprwl/internal/memmodel"
	"sprwl/internal/obs"
	"sprwl/internal/skiplist"
)

// Critical-section IDs for the sharded KV workload.
const (
	csKVGet = iota
	csKVScan
	csKVPut
	csKVDelete
	csKVMulti
	// NumKVCS is the number of distinct KV critical sections.
	NumKVCS
)

// KVConfig shapes the sharded key-value store behind sprwl-serve: one
// skiplist per lock-table shard, point ops under the key's shard lock,
// range scans under a whole-table read span, and multi-key updates under
// an AcquireN write span.
type KVConfig struct {
	// Table configures the underlying lock table. Table.NumCS is raised
	// to NumKVCS if lower.
	Table locktable.Config
	// Items is the key-space size (keys 0..Items-1, fully populated at
	// setup).
	Items int
}

// Validate fills defaults.
func (c *KVConfig) Validate() {
	if c.Items <= 0 {
		c.Items = 16384
	}
	if c.Table.NumCS < NumKVCS {
		c.Table.NumCS = NumKVCS
	}
}

// kvNodeBlock is one pool block rounded to whole lines.
func kvNodeBlock() int {
	return (skiplist.NodeWords + memmodel.LineWords - 1) / memmodel.LineWords * memmodel.LineWords
}

// KVWords returns the simulated-memory footprint a KV built with c needs:
// the lock table, one list head per shard, the populated nodes, and churn
// headroom for insert/delete imbalance across worker free-lists.
func KVWords(c KVConfig) int {
	c.Validate()
	shards := locktable.Words(c.Table) // lock state
	cfg := c.Table
	heads := locktable.NumShards(cfg) * skiplist.Words()
	nodes := (c.Items + (c.Table.Threads+1)*128) * kvNodeBlock()
	return shards + heads + nodes + memmodel.LineWords
}

// KV is a sharded key-value store: key k lives in the skiplist of the
// shard k hashes to, and that shard's SpRWL lock protects it.
type KV struct {
	Table *locktable.Table
	lists []*skiplist.List
	pool  *alloc.Pool
	items uint64
}

// SetupKV carves the table and the per-shard lists out of ar and populates
// keys 0..Items-1 (value == key) through e directly; single-threaded setup
// only.
func SetupKV(e env.Env, ar *memmodel.Arena, cfg KVConfig, pipe *obs.Pipeline) (*KV, error) {
	cfg.Validate()
	tbl, err := locktable.New(e, ar, cfg.Table, pipe)
	if err != nil {
		return nil, err
	}
	slots := cfg.Table.Threads
	if slots < 1 {
		slots = 1
	}
	kv := &KV{
		Table: tbl,
		lists: make([]*skiplist.List, tbl.Shards()),
		pool:  alloc.NewPool(ar, skiplist.NodeWords, slots),
		items: uint64(cfg.Items),
	}
	for i := range kv.lists {
		kv.lists[i] = skiplist.New(ar, kv.pool)
	}
	for k := uint64(0); k < kv.items; k++ {
		l := kv.lists[tbl.ShardIndex(k)]
		if !l.Insert(e, k, k, kv.pool.Get(0)) {
			return nil, fmt.Errorf("workload: duplicate key %d during KV populate", k)
		}
	}
	return kv, nil
}

// Items returns the configured key-space size.
func (kv *KV) Items() uint64 { return kv.items }

// NewClient returns worker slot's endpoint. A Client is single-goroutine,
// like the lock handle it wraps; its op bodies are pre-bound closures, so
// steady-state point ops inherit the lock table's 0 allocs/op contract.
func (kv *KV) NewClient(slot int) *Client {
	c := &Client{kv: kv, h: kv.Table.NewHandle(slot), slot: slot}
	c.getBody = func(acc memmodel.Accessor) {
		c.val, c.ok = c.kv.lists[c.shard].Get(acc, c.key)
	}
	c.putBody = func(acc memmodel.Accessor) {
		c.ok = c.kv.lists[c.shard].Insert(acc, c.key, c.val, c.node)
	}
	c.delBody = func(acc memmodel.Accessor) {
		c.node = c.kv.lists[c.shard].Delete(acc, c.key)
	}
	c.scanBody = func(acc memmodel.Accessor) {
		// Reset inside the body: a re-executed body must not double-count.
		c.count, c.sum = 0, 0
		for _, l := range c.kv.lists {
			n, s := l.Range(acc, c.lo, c.hi)
			c.count += n
			c.sum += s
		}
	}
	c.multiBody = func(acc memmodel.Accessor) {
		c.count = 0
		for _, k := range c.mkeys {
			if c.kv.lists[c.kv.Table.ShardIndex(k)].Update(acc, k, c.val) {
				c.count++
			}
		}
	}
	return c
}

// Client is one worker's endpoint to the KV.
type Client struct {
	kv   *KV
	h    *locktable.Handle
	slot int

	// Per-op operands and results, written by the pre-bound bodies below.
	// Bodies recompute every field they write, so transactional
	// re-execution is safe.
	key, val uint64
	shard    int
	lo, hi   uint64
	mkeys    []uint64
	node     memmodel.Addr
	ok       bool
	count    int
	sum      uint64

	getBody   func(memmodel.Accessor)
	putBody   func(memmodel.Accessor)
	delBody   func(memmodel.Accessor)
	scanBody  func(memmodel.Accessor)
	multiBody func(memmodel.Accessor)
}

// Get returns key's value under the key's shard lock.
func (c *Client) Get(key uint64) (uint64, bool) {
	c.key, c.shard = key, c.kv.Table.ShardIndex(key)
	c.h.Read(key, csKVGet, c.getBody)
	return c.val, c.ok
}

// Put upserts (key, val) under the key's shard lock and reports whether
// the key was newly inserted. Not an allocation-free path: the node
// pool's free lists grow amortized, so Put may allocate on a pool refill
// (the lock acquisition underneath keeps its 0 allocs/op contract).
func (c *Client) Put(key, val uint64) bool {
	c.key, c.val, c.shard = key, val, c.kv.Table.ShardIndex(key)
	c.node = c.kv.pool.Get(c.slot)
	c.h.Write(key, csKVPut, c.putBody)
	if !c.ok {
		c.kv.pool.Put(c.slot, c.node)
	}
	return c.ok
}

// Delete removes key under its shard lock, reporting whether it was
// present; the node is recycled after the section commits. Like Put, not
// allocation-free: recycling grows the pool's free list amortized.
func (c *Client) Delete(key uint64) bool {
	c.key, c.shard = key, c.kv.Table.ShardIndex(key)
	c.h.Write(key, csKVDelete, c.delBody)
	if c.node != 0 {
		c.kv.pool.Put(c.slot, c.node)
		return true
	}
	return false
}

// Scan visits every key in [lo, lo+span) across all shards under a
// whole-table read span and returns the visit count and value sum.
func (c *Client) Scan(lo uint64, span int) (int, uint64) {
	c.lo, c.hi = lo, lo+uint64(span)
	c.h.ReadAll(csKVScan, c.scanBody)
	return c.count, c.sum
}

// MultiPut sets every present key in keys to val atomically — one AcquireN
// write span over the covered shards — and returns how many updates it
// applied (a duplicate key occurrence re-applies the same value; absent
// keys are skipped).
func (c *Client) MultiPut(keys []uint64, val uint64) int {
	c.mkeys, c.val = keys, val
	c.h.WriteN(keys, csKVMulti, c.multiBody)
	c.mkeys = nil
	return c.count
}
