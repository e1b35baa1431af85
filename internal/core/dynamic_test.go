package core

import (
	"sync"
	"testing"
	"time"

	"sprwl/internal/htm"
	"sprwl/internal/memmodel"
)

// TestDynamicHandleRequiresDynamicBackend: the flag array cannot hold a
// slot-less reader, so a flags-only configuration must refuse to hand out
// dynamic handles.
func TestDynamicHandleRequiresDynamicBackend(t *testing.T) {
	l, _, _, _ := testSetup(t, 2, htm.Config{}, DefaultOptions())
	if _, err := l.NewDynamicHandle(); err == nil {
		t.Fatal("NewDynamicHandle succeeded on a flags-only lock")
	}
	for _, opts := range []Options{BravoOptions(), SNZIOptions(), AutoSNZIOptions()} {
		l, _, _, _ := testSetup(t, 2, htm.Config{}, opts)
		if _, err := l.NewDynamicHandle(); err != nil {
			t.Fatalf("NewDynamicHandle(%s): %v", l.Name(), err)
		}
	}
}

// TestDynamicHandleEvictsFlagTracking: handing out a dynamic handle under
// TrackAuto while tracking sits in the flag array must move tracking to a
// structure that can hold slot-less readers, and the controller must never
// move it back while dynamic handles exist.
func TestDynamicHandleEvictsFlagTracking(t *testing.T) {
	opts := AutoSNZIOptions()
	opts.ReaderHTMFirst = false
	l, e, ar, _ := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)

	if got := trackTarget(e.Load(l.trackMode)); got != backendFlags {
		t.Fatalf("initial tracking = %d, want flags", got)
	}
	h, err := l.NewDynamicHandle()
	if err != nil {
		t.Fatal(err)
	}
	if got := trackTarget(e.Load(l.trackMode)); got != backendBravo {
		t.Fatalf("tracking after NewDynamicHandle = %d, want BRAVO", got)
	}

	// Drive the controller with short reads on the pacing handle: without
	// dynamic readers it would demote to flags; with one registered it
	// must stay on a dynamic-safe structure.
	sh := l.NewHandle(0)
	for i := 0; i < 8*adaptEvery; i++ {
		sh.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(data) })
	}
	if got := trackTarget(e.Load(l.trackMode)); got == backendFlags {
		t.Fatal("controller demoted to the flag array while a dynamic reader exists")
	}
	_ = h
}

// TestDynamicReaderBlocksWriterCommit: an active dynamic reader must be
// visible to a committing writer — the heart of the revocation-epoch safety
// argument — for each dynamic-safe configuration.
func TestDynamicReaderBlocksWriterCommit(t *testing.T) {
	for _, opts := range []Options{BravoOptions(), SNZIOptions(), AutoSNZIOptions()} {
		opts.ReaderHTMFirst = false
		l, e, ar, _ := testSetup(t, 2, htm.Config{}, opts)
		data := ar.AllocLines(1)
		h, err := l.NewDynamicHandle()
		if err != nil {
			t.Fatal(err)
		}

		readerIn := make(chan struct{})
		readerGo := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.Read(0, func(acc memmodel.Accessor) {
				close(readerIn)
				<-readerGo
			})
		}()
		<-readerIn

		done := make(chan struct{})
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.NewHandle(1).Write(1, func(acc memmodel.Accessor) { acc.Store(data, 1) })
			close(done)
		}()
		select {
		case <-done:
			t.Fatalf("%s: writer completed during an active dynamic reader", l.Name())
		case <-time.After(15 * time.Millisecond):
		}
		close(readerGo)
		wg.Wait()
		if got := e.Load(data); got != 1 {
			t.Fatalf("%s: data = %d, want 1", l.Name(), got)
		}
	}
}

// TestDynamicWriterTakesFallback: a dynamic writer has no transaction slot;
// it must run on the fallback lock and still be mutually exclusive and
// correctly counted.
func TestDynamicWriterTakesFallback(t *testing.T) {
	opts := BravoOptions()
	l, e, ar, col := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)
	h, err := l.NewDynamicHandle()
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			h.Write(0, func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) })
		}
	}()
	sh := l.NewHandle(0)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			sh.Write(0, func(acc memmodel.Accessor) { acc.Store(data, acc.Load(data)+1) })
		}
	}()
	wg.Wait()
	if got := e.Load(data); got != 2*n {
		t.Fatalf("data = %d, want %d", got, 2*n)
	}
	_ = col
}

// TestManyDynamicReadersOverflow: more concurrent dynamic readers than
// BRAVO slots forces the overflow path; counts must still balance and a
// subsequent writer must run.
func TestManyDynamicReadersOverflow(t *testing.T) {
	opts := BravoOptions()
	opts.BravoSlots = 4
	l, e, ar, _ := testSetup(t, 2, htm.Config{}, opts)
	data := ar.AllocLines(1)
	const readers = 16
	var wg sync.WaitGroup
	for i := 0; i < readers; i++ {
		h, err := l.NewDynamicHandle()
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 200; j++ {
				h.Read(0, func(acc memmodel.Accessor) { _ = acc.Load(data) })
			}
		}()
	}
	wg.Wait()
	l.NewHandle(0).Write(1, func(acc memmodel.Accessor) { acc.Store(data, 7) })
	if got := e.Load(data); got != 7 {
		t.Fatalf("data = %d, want 7", got)
	}
	if l.indBravo.Check(nopTx{e}, -1) {
		t.Fatal("BRAVO table still shows readers after all departed")
	}
}

// nopTx adapts the direct environment to the readers.TxMemory shape for
// post-hoc assertions.
type nopTx struct {
	e interface{ Load(memmodel.Addr) uint64 }
}

func (n nopTx) Load(a memmodel.Addr) uint64 { return n.e.Load(a) }
