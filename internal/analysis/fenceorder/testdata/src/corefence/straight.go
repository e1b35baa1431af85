package core

import (
	"sync/atomic"

	"sprwl/internal/rwlock"
)

// The cases in this file are wrong in plain source order: the statements
// of the documented handshake are transposed, so every path through the
// function breaks the fence, not only some. Phase stores carry their wake
// so that F6 does not mask the rule under test.

// badRead retracts the reader flag before the body runs: the body runs
// uncovered (F1). F5 fires at the same site too, but findings are
// de-duplicated per site.
func (l *lock) badRead(body rwlock.Body) {
	l.flagReader()
	l.unflagReader()
	body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
}

// badClear publishes the state slot as empty while the body is still in
// flight (F1: a stateEmpty store is a retract).
func (l *lock) badClear(body rwlock.Body) {
	l.e.Store(l.stateAddr(0), stateEmpty)
	l.wakes.Wake(l.stateAddr(0))
	body(nil) // want `a path reaches this critical-section body with the reader flag already retracted`
}

// badRetire retires the versioned-SGL registration before the flag is up
// (F3).
func (l *lock) badRetire() {
	l.e.Store(l.readerVerAddr(0), 0) // want `a path reaches this readerVer retire \(store of zero\) with the reader not flagged`
	l.wakes.Wake(l.readerVerAddr(0))
	l.flagReader()
}

// goodRetire flags first, exactly like the real flagReader.
func (l *lock) goodRetire() {
	l.flagReader()
	l.e.Store(l.readerVerAddr(0), 0)
	l.wakes.Wake(l.readerVerAddr(0))
}

// badWrite advertises the writer before publishing its clock (F2).
func (l *lock) badWrite(end uint64) {
	l.e.Store(l.stateAddr(0), stateWriter) // want `a path reaches this stateWriter advertise without storing the writer clock`
	l.e.Store(l.clockWAddr(0), end)
}

// goodWrite is the documented ReaderSync advertise order.
func (l *lock) goodWrite(end uint64) {
	l.e.Store(l.clockWAddr(0), end)
	l.e.Store(l.stateAddr(0), stateWriter)
}

// badRegister registers under the versioned SGL without validating the
// lock version afterwards (F4: unsafe lazy subscription).
func (l *lock) badRegister(observed uint64) {
	l.e.Store(l.readerVerAddr(0), observed+1) // want `a path from this readerVer registration reaches return without a glVer validation load`
	l.wakes.Wake(l.readerVerAddr(0))
}

// goodRegister validates after registering, like the real
// flagReaderAndSyncGL.
func (l *lock) goodRegister(observed uint64) {
	l.e.Store(l.readerVerAddr(0), observed+1)
	l.wakes.Wake(l.readerVerAddr(0))
	_ = l.e.Load(l.glVer)
}

// badAtomic bypasses the simulated memory model.
func badAtomic(x *uint64) {
	atomic.AddUint64(x, 1) // want `direct sync/atomic call atomic.AddUint64`
}

// goodTypedAtomic operates on auxiliary Go-side state through a typed
// atomic, which the rule does not match.
func goodTypedAtomic(x *atomic.Uint64) {
	x.Add(1)
}

// allowedAtomic is a deliberate, justified exception to the same rule.
func allowedAtomic(x *uint64) {
	//sprwl:allow(fenceorder) fixture: deliberate exception for auxiliary state
	atomic.AddUint64(x, 1)
}
