package skiplist_test

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"sprwl/internal/alloc"
	"sprwl/internal/core"
	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
	"sprwl/internal/skiplist"
)

// Range queries over an ordered key-value store — the workload the paper's
// introduction uses to motivate SpRWL.
//
// A skiplist holds a versioned inventory; analysts run long range scans
// summing a key interval while clerks apply point updates that conserve
// the total (moving stock between keys). Every scan must observe the
// conserved total: any torn snapshot would break the sum. The scans touch
// hundreds of cache lines — far beyond the emulated HTM's capacity — so
// SpRWL runs them uninstrumented while clerks commit as hardware
// transactions.
func Example_orderedMap() {
	const (
		threads   = 6
		items     = 2048
		unitStock = 10
		scans     = 150
		moves     = 3000
	)
	nodeBlock := (skiplist.NodeWords + memmodel.LineWords - 1) / memmodel.LineWords * memmodel.LineWords
	words := skiplist.Words() + (items+64)*nodeBlock + 4096*memmodel.LineWords
	// Emulate the paper's POWER8 capacity limits so the full-range scans
	// (thousands of lines) cannot possibly run as hardware transactions.
	rCap, wCap := htm.Power8().EffectiveCapacity(threads)
	space, err := htm.NewSpace(htm.Config{
		Threads:            threads,
		Words:              words,
		ReadCapacityLines:  rCap,
		WriteCapacityLines: wCap,
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	e := htm.NewRuntime(space, nil)
	ar := memmodel.NewArena(0, space.Size())
	lock, err := core.New(e, ar, threads, 4, core.DefaultOptions(), nil)
	if err != nil {
		fmt.Println(err)
		return
	}

	pool := alloc.NewPool(ar, skiplist.NodeWords, threads)
	list := skiplist.New(ar, pool)
	for k := 0; k < items; k++ {
		list.Insert(space, uint64(k), unitStock, pool.Get(0))
	}

	var wg sync.WaitGroup
	errs := make(chan error, threads)
	for slot := 0; slot < threads; slot++ {
		wg.Add(1)
		go func(slot int) {
			defer wg.Done()
			h := lock.NewHandle(slot)
			rng := rand.New(rand.NewPCG(uint64(slot), 44))
			if slot%3 == 0 {
				// Analyst: full-range scan; total stock must be
				// conserved in every snapshot.
				for s := 0; s < scans; s++ {
					var count int
					var sum uint64
					h.Read(0, func(acc memmodel.Accessor) {
						count, sum = list.Range(acc, 0, items)
					})
					if count != items || sum != items*unitStock {
						errs <- fmt.Errorf("scan %d saw count=%d sum=%d, want %d/%d",
							s, count, sum, items, items*unitStock)
						return
					}
				}
			} else {
				// Clerk: move one unit of stock between two keys.
				for m := 0; m < moves; m++ {
					from := uint64(rng.IntN(items))
					to := uint64(rng.IntN(items))
					if from == to {
						continue
					}
					h.Write(1, func(acc memmodel.Accessor) {
						fv, _ := list.Get(acc, from)
						if fv == 0 {
							return
						}
						tv, _ := list.Get(acc, to)
						// In-place updates: keys always exist.
						list.Insert(acc, from, fv-1, 0)
						list.Insert(acc, to, tv+1, 0)
					})
				}
			}
		}(slot)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		fmt.Println(err)
		return
	}

	count, sum := list.Range(space, 0, items)
	fmt.Printf("final inventory: %d keys, %d units (conserved)\n", count, sum)
	// Output: final inventory: 2048 keys, 20480 units (conserved)
}
