package htm

import (
	"math"
	"testing"

	"sprwl/internal/env"
	"sprwl/internal/memmodel"
)

func newTestSpace(t *testing.T, cfg Config) *Space {
	t.Helper()
	if cfg.Threads == 0 {
		cfg.Threads = 4
	}
	if cfg.Words == 0 {
		cfg.Words = 1 << 12
	}
	s, err := NewSpace(cfg)
	if err != nil {
		t.Fatalf("NewSpace(%+v): %v", cfg, err)
	}
	return s
}

func TestNewSpaceValidation(t *testing.T) {
	tests := []struct {
		name string
		cfg  Config
	}{
		{"zero threads", Config{Threads: 0, Words: 64}},
		{"too many threads", Config{Threads: MaxThreads + 1, Words: 64}},
		{"zero words", Config{Threads: 1, Words: 0}},
		{"negative read capacity", Config{Threads: 1, Words: 64, ReadCapacityLines: -1}},
		{"negative write capacity", Config{Threads: 1, Words: 64, WriteCapacityLines: -1}},
		// A read-set entry holds line+1 in 32 bits; the check must come
		// before the space is allocated.
		{"too many lines", Config{Threads: 1, Words: (math.MaxUint32 + 1) * memmodel.LineWords}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSpace(tt.cfg); err == nil {
				t.Fatalf("NewSpace(%+v) succeeded, want error", tt.cfg)
			}
		})
	}
}

func TestSpaceRoundsUpToWholeLines(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: memmodel.LineWords + 1})
	if got, want := s.Size(), memmodel.Addr(2*memmodel.LineWords); got != want {
		t.Fatalf("Size() = %d, want %d", got, want)
	}
}

func TestUninstrumentedLoadStore(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(3, 42)
	if got := s.Load(3); got != 42 {
		t.Fatalf("Load(3) = %d, want 42", got)
	}
	if got := s.Load(4); got != 0 {
		t.Fatalf("Load(4) = %d, want 0 (untouched word)", got)
	}
}

func TestUninstrumentedCAS(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(0, 7)
	if s.CAS(0, 8, 9) {
		t.Fatal("CAS(0, 8, 9) succeeded with current value 7")
	}
	if !s.CAS(0, 7, 9) {
		t.Fatal("CAS(0, 7, 9) failed with current value 7")
	}
	if got := s.Load(0); got != 9 {
		t.Fatalf("Load(0) = %d after CAS, want 9", got)
	}
}

func TestUninstrumentedAdd(t *testing.T) {
	s := newTestSpace(t, Config{})
	if got := s.Add(5, 3); got != 3 {
		t.Fatalf("Add(5, 3) = %d, want 3", got)
	}
	if got := s.Add(5, ^uint64(0)); got != 2 { // add -1
		t.Fatalf("Add(5, -1) = %d, want 2", got)
	}
}

func TestTxCommitExternalizesWrites(t *testing.T) {
	s := newTestSpace(t, Config{})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 1)
		tx.Store(100, 2)
		// Buffered writes must be invisible before commit.
		if got := s.Load(200); got != 0 {
			t.Errorf("unrelated word changed mid-transaction: %d", got)
		}
	})
	if cause != env.Committed {
		t.Fatalf("Attempt = %v, want Committed", cause)
	}
	if got := s.Load(0); got != 1 {
		t.Fatalf("Load(0) = %d after commit, want 1", got)
	}
	if got := s.Load(100); got != 2 {
		t.Fatalf("Load(100) = %d after commit, want 2", got)
	}
}

func TestTxReadsOwnWrites(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(0, 10)
	s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		if got := tx.Load(0); got != 10 {
			t.Errorf("tx.Load(0) = %d before write, want 10", got)
		}
		tx.Store(0, 11)
		if got := tx.Load(0); got != 11 {
			t.Errorf("tx.Load(0) = %d after own write, want 11", got)
		}
		// A different word on the same (written) line still reads from
		// memory.
		if got := tx.Load(1); got != 0 {
			t.Errorf("tx.Load(1) = %d, want 0", got)
		}
	})
}

func TestExplicitAbortDiscardsWrites(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(0, 5)
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 99)
		tx.Abort(env.AbortExplicit)
		t.Error("body continued past Abort")
	})
	if cause != env.AbortExplicit {
		t.Fatalf("Attempt = %v, want AbortExplicit", cause)
	}
	if got := s.Load(0); got != 5 {
		t.Fatalf("Load(0) = %d after abort, want 5", got)
	}
}

func TestReadCapacityAbort(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 12, ReadCapacityLines: 4})
	var reads int
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 8; i++ {
			tx.Load(memmodel.Addr(i * memmodel.LineWords))
			reads++
		}
	})
	if cause != env.AbortCapacity {
		t.Fatalf("Attempt = %v, want AbortCapacity", cause)
	}
	if reads != 4 {
		t.Fatalf("performed %d line reads before capacity abort, want 4", reads)
	}
}

func TestWriteCapacityAbort(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 12, WriteCapacityLines: 2})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 4; i++ {
			tx.Store(memmodel.Addr(i*memmodel.LineWords), 1)
		}
	})
	if cause != env.AbortCapacity {
		t.Fatalf("Attempt = %v, want AbortCapacity", cause)
	}
	for i := 0; i < 4; i++ {
		if got := s.Load(memmodel.Addr(i * memmodel.LineWords)); got != 0 {
			t.Fatalf("word %d = %d after capacity abort, want 0", i, got)
		}
	}
}

func TestSlotCapacityOverride(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 2, Words: 1 << 12, ReadCapacityLines: 100})
	s.SetSlotCapacity(1, 2, 2)
	cause := s.Attempt(1, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 3; i++ {
			tx.Load(memmodel.Addr(i * memmodel.LineWords))
		}
	})
	if cause != env.AbortCapacity {
		t.Fatalf("Attempt on capped slot = %v, want AbortCapacity", cause)
	}
	cause = s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 3; i++ {
			tx.Load(memmodel.Addr(i * memmodel.LineWords))
		}
	})
	if cause != env.Committed {
		t.Fatalf("Attempt on uncapped slot = %v, want Committed", cause)
	}
}

func TestRepeatedLineAccessDoesNotConsumeCapacity(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 12, ReadCapacityLines: 1, WriteCapacityLines: 1})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		for i := 0; i < 100; i++ {
			tx.Load(memmodel.Addr(i % memmodel.LineWords))
		}
		for i := 0; i < 100; i++ {
			tx.Store(memmodel.Addr(memmodel.LineWords+i%memmodel.LineWords), uint64(i))
		}
	})
	if cause != env.Committed {
		t.Fatalf("Attempt = %v, want Committed", cause)
	}
}

// TestStrongIsolationStoreDoomsReader reproduces the mechanism of paper
// Fig. 1: an uninstrumented store to a line in a transaction's read set
// dooms the transaction before it can commit.
func TestStrongIsolationStoreDoomsReader(t *testing.T) {
	s := newTestSpace(t, Config{})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		_ = tx.Load(0)
		// Simulate a concurrent thread's uninstrumented store to the
		// line we read.
		s.Store(1, 7) // same line as word 0
		tx.Store(100, 1)
		t.Error("transaction survived an uninstrumented store to its read set")
	})
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want AbortConflict", cause)
	}
	if got := s.Load(100); got != 0 {
		t.Fatalf("doomed transaction externalized a write: %d", got)
	}
}

// TestStrongIsolationLoadDoomsWriter checks that an uninstrumented load of a
// transactionally-written line dooms the writer and observes the pre-commit
// value (the remote-read-aborts-M-line behaviour of real HTM).
func TestStrongIsolationLoadDoomsWriter(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(0, 1)
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 2)
		if got := s.Load(0); got != 1 {
			t.Errorf("uninstrumented Load = %d during transaction, want pre-transaction value 1", got)
		}
		_ = tx.Load(50) // next transactional access unwinds
		t.Error("transaction survived an uninstrumented load of its write set")
	})
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want AbortConflict", cause)
	}
	if got := s.Load(0); got != 1 {
		t.Fatalf("Load(0) = %d, want 1", got)
	}
}

// TestStrongIsolationCASDoomsReader checks that a successful uninstrumented
// CAS has store semantics with respect to transactional readers.
func TestStrongIsolationCASDoomsReader(t *testing.T) {
	s := newTestSpace(t, Config{})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		_ = tx.Load(0)
		if !s.CAS(0, 0, 3) {
			t.Error("CAS failed unexpectedly")
		}
		_ = tx.Load(0)
		t.Error("transaction survived a CAS to its read set")
	})
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want AbortConflict", cause)
	}
}

func TestAbortedReportsDoomWithoutUnwinding(t *testing.T) {
	s := newTestSpace(t, Config{})
	sawDoom := false
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		_ = tx.Load(0)
		if tx.Aborted() {
			t.Error("Aborted() true before any conflict")
		}
		s.Store(0, 1)
		sawDoom = tx.Aborted()
		tx.Abort(env.AbortExplicit) // unwind manually; doom cause must win
	})
	if !sawDoom {
		t.Fatal("Aborted() did not observe the doom")
	}
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want the original AbortConflict to be preserved", cause)
	}
}

// TestROTLoadsAreUntracked verifies POWER8 rollback-only semantics: loads
// consume no read capacity and a subsequent uninstrumented store to a
// ROT-read line does not abort the ROT (this is the hole RW-LE must close
// with quiescence).
func TestROTLoadsAreUntracked(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 12, ReadCapacityLines: 2})
	cause := s.Attempt(0, env.TxOpts{ROT: true}, func(tx env.TxAccessor) {
		for i := 0; i < 16; i++ { // far beyond read capacity
			_ = tx.Load(memmodel.Addr(i * memmodel.LineWords))
		}
		s.Store(0, 9) // store to a ROT-read line: must NOT doom
		tx.Store(200, 1)
	})
	if cause != env.Committed {
		t.Fatalf("ROT Attempt = %v, want Committed", cause)
	}
	if got := s.Load(200); got != 1 {
		t.Fatalf("Load(200) = %d, want 1", got)
	}
}

func TestROTStoresStillConflict(t *testing.T) {
	s := newTestSpace(t, Config{})
	cause := s.Attempt(0, env.TxOpts{ROT: true}, func(tx env.TxAccessor) {
		tx.Store(0, 5)
		if got := s.Load(0); got != 0 {
			t.Errorf("uninstrumented Load = %d, want pre-ROT value 0", got)
		}
		tx.Store(8, 1) // next access unwinds
		t.Error("ROT survived an uninstrumented load of its write set")
	})
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want AbortConflict", cause)
	}
}

func TestROTWriteCapacity(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 12, WriteCapacityLines: 2})
	cause := s.Attempt(0, env.TxOpts{ROT: true}, func(tx env.TxAccessor) {
		for i := 0; i < 4; i++ {
			tx.Store(memmodel.Addr(i*memmodel.LineWords), 1)
		}
	})
	if cause != env.AbortCapacity {
		t.Fatalf("Attempt = %v, want AbortCapacity", cause)
	}
}

func TestSuspendReadsPreTransactionalValues(t *testing.T) {
	s := newTestSpace(t, Config{})
	s.Store(0, 1)
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 2)
		alive := tx.Suspend(func() {
			if got := tx.Load(0); got != 1 {
				t.Errorf("suspended Load(0) = %d, want pre-transactional 1", got)
			}
		})
		if !alive {
			t.Error("Suspend reported doom without a conflict")
		}
	})
	if cause != env.Committed {
		t.Fatalf("Attempt = %v, want Committed", cause)
	}
	if got := s.Load(0); got != 2 {
		t.Fatalf("Load(0) = %d after commit, want 2", got)
	}
}

func TestSuspendObservesDoom(t *testing.T) {
	s := newTestSpace(t, Config{})
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 2)
		alive := tx.Suspend(func() {
			s.Store(0, 3) // conflicting uninstrumented store dooms us
		})
		if alive {
			t.Error("Suspend reported alive after a conflicting store")
		}
	})
	if cause != env.AbortConflict {
		t.Fatalf("Attempt = %v, want AbortConflict", cause)
	}
	if got := s.Load(0); got != 3 {
		t.Fatalf("Load(0) = %d, want the uninstrumented store's 3", got)
	}
}

func TestSpuriousAbortInjection(t *testing.T) {
	s := newTestSpace(t, Config{Threads: 1, Words: 1 << 10, SpuriousEvery: 5})
	var aborts, commits int
	for i := 0; i < 20; i++ {
		cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
			for j := 0; j < 3; j++ {
				_ = tx.Load(memmodel.Addr(j * memmodel.LineWords))
			}
		})
		switch cause {
		case env.Committed:
			commits++
		case env.AbortSpurious:
			aborts++
		default:
			t.Fatalf("unexpected cause %v", cause)
		}
	}
	if aborts == 0 {
		t.Fatal("spurious-abort injection never fired")
	}
	if commits == 0 {
		t.Fatal("every attempt aborted; injection too aggressive for test config")
	}
}

func TestBodyPanicPropagatesAndCleansUp(t *testing.T) {
	s := newTestSpace(t, Config{})
	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("body panic did not propagate")
			}
		}()
		s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
			tx.Store(0, 1)
			panic("application bug")
		})
	}()
	// Metadata must be released: a fresh transaction can write the line.
	cause := s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		tx.Store(0, 2)
	})
	if cause != env.Committed {
		t.Fatalf("Attempt after body panic = %v, want Committed", cause)
	}
	if got := s.Load(0); got != 2 {
		t.Fatalf("Load(0) = %d, want 2", got)
	}
}

func TestNestedAttemptPanics(t *testing.T) {
	s := newTestSpace(t, Config{})
	defer func() {
		if r := recover(); r == nil {
			t.Error("nested Attempt on one slot did not panic")
		}
	}()
	s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {
		s.Attempt(0, env.TxOpts{}, func(tx env.TxAccessor) {})
	})
}

func TestAbortCauseStrings(t *testing.T) {
	tests := []struct {
		cause env.AbortCause
		want  string
	}{
		{env.Committed, "committed"},
		{env.AbortConflict, "conflict"},
		{env.AbortCapacity, "capacity"},
		{env.AbortExplicit, "explicit"},
		{env.AbortReader, "reader"},
		{env.AbortSpurious, "spurious"},
		{env.AbortCause(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.cause.String(); got != tt.want {
			t.Errorf("AbortCause(%d).String() = %q, want %q", tt.cause, got, tt.want)
		}
	}
}

func TestCommitModeStrings(t *testing.T) {
	tests := []struct {
		mode env.CommitMode
		want string
	}{
		{env.ModeHTM, "HTM"},
		{env.ModeROT, "ROT"},
		{env.ModeGL, "GL"},
		{env.ModeUninstrumented, "Unins"},
		{env.ModePessimistic, "Pess"},
		{env.CommitMode(99), "unknown"},
	}
	for _, tt := range tests {
		if got := tt.mode.String(); got != tt.want {
			t.Errorf("CommitMode(%d).String() = %q, want %q", tt.mode, got, tt.want)
		}
	}
}
