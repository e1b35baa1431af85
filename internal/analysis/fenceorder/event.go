package fenceorder

import (
	"go/ast"
	"go/token"
	"go/types"

	"sprwl/internal/analysis/astq"
)

// The event classifier is structural — it matches the address-family
// helper names (stateAddr, clockWAddr, clockRAddr, waitingForAddr,
// readerVerAddr, glVer), the env method names (Load/Store), the reader
// flag/retract helpers, and invocations of the rwlock.Body type — so it
// works both on internal/core itself and on reduced test fixtures that
// mirror its shapes.

// eventKind discriminates the protocol event classes.
type eventKind int

const (
	// evStore is an env Store to a protocol word.
	evStore eventKind = iota
	// evLoad is an env Load of a protocol word.
	evLoad
	// evFlag publishes the reader (flagReader / arriveIn /
	// flagReaderAndSyncGL).
	evFlag
	// evRetract withdraws the reader's publication (unflagReader /
	// departFrom).
	evRetract
	// evBody invokes an rwlock.Body critical-section value.
	evBody
	// evAtomic is a package-level sync/atomic call (forbidden in core).
	evAtomic
	// evWake signals parked waiters on a protocol word (Hub.Wake with the
	// word's address, or the fallback lock's zero-argument gl.Wake).
	evWake
	// evPause is one spin-then-park step of a park.Waiter on a protocol
	// word (Waiter.Pause with the word's address first).
	evPause
)

// family identifies which protocol word an env access touches.
type family string

const (
	famState     family = "state"
	famClockW    family = "clockW"
	famClockR    family = "clockR"
	famWaiting   family = "waitingFor"
	famReaderVer family = "readerVer"
	famGLVer     family = "glVer"
	// famGL is the fallback lock's own word (gl.Addr / gl.IsLocked /
	// gl.Wake), the address §3.3 readers park on.
	famGL    family = "gl"
	famOther family = ""
)

var addrFamilies = map[string]family{
	"stateAddr":      famState,
	"clockWAddr":     famClockW,
	"clockRAddr":     famClockR,
	"waitingForAddr": famWaiting,
	"readerVerAddr":  famReaderVer,
}

// storedVal classifies the stored value where the ordering rules care
// about it.
type storedVal int

const (
	valOther storedVal = iota
	valZero
	valStateWriter
	valStateEmpty
)

// event is one classified protocol event.
type event struct {
	kind eventKind
	fam  family
	val  storedVal
	pos  token.Pos
	// name is the callee name, for diagnostics.
	name string
}

// classify maps a call expression to a protocol event, if it is one.
// resolve extends the structural address recognition with local aliases of
// an address-helper call (`a := l.stateAddr(i)` … `l.e.Load(a)`); it
// returns famOther for expressions it does not recognize.
func classify(info *types.Info, call *ast.CallExpr, resolve func(ast.Expr) family) (event, bool) {
	fam := func(e ast.Expr) family {
		f := addrFamily(e)
		if f == famOther {
			f = resolve(e)
		}
		return f
	}
	name := astq.CalleeName(call)
	switch name {
	case "flagReader", "arriveIn", "flagReaderAndSyncGL":
		return event{kind: evFlag, pos: call.Pos(), name: name}, true
	case "unflagReader", "departFrom":
		return event{kind: evRetract, pos: call.Pos(), name: name}, true
	case "Store":
		if len(call.Args) == 2 {
			if f := fam(call.Args[0]); f != famOther {
				return event{kind: evStore, fam: f, val: classifyValue(call.Args[1]), pos: call.Pos(), name: name}, true
			}
		}
	case "Load":
		if len(call.Args) == 1 {
			if f := fam(call.Args[0]); f != famOther {
				return event{kind: evLoad, fam: f, pos: call.Pos(), name: name}, true
			}
		}
	case "IsLocked":
		// The fallback lock's held-check is the gl-word analogue of a
		// protocol Load: it is what check-before-park loops re-check.
		if len(call.Args) == 0 && isGLReceiver(call) {
			return event{kind: evLoad, fam: famGL, pos: call.Pos(), name: name}, true
		}
	case "Wake":
		if len(call.Args) == 1 {
			if f := fam(call.Args[0]); f != famOther {
				return event{kind: evWake, fam: f, pos: call.Pos(), name: name}, true
			}
		}
		if len(call.Args) == 0 && isGLReceiver(call) {
			return event{kind: evWake, fam: famGL, pos: call.Pos(), name: name}, true
		}
	case "Pause":
		if len(call.Args) == 3 {
			if f := fam(call.Args[0]); f != famOther {
				return event{kind: evPause, fam: f, pos: call.Pos(), name: name}, true
			}
		}
	}
	if fn := astq.CalleeFunc(info, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" {
		// Package-level functions only: typed-atomic methods
		// (atomic.Uint64.Add) have a receiver and operate on auxiliary
		// Go-side state, which is allowed.
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() == nil {
			return event{kind: evAtomic, pos: call.Pos(), name: "atomic." + fn.Name()}, true
		}
	}
	if t := astq.TypeOf(info, call.Fun); t != nil && astq.IsNamed(t, "internal/rwlock", "Body") {
		return event{kind: evBody, pos: call.Pos(), name: "body"}, true
	}
	return event{}, false
}

// addrFamily recognizes the address expression of an env access: a call to
// one of the address-family helpers, the fallback lock's gl.Addr(), or the
// glVer field/variable.
func addrFamily(e ast.Expr) family {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fam, ok := addrFamilies[astq.CalleeName(e)]; ok {
			return fam
		}
		if astq.CalleeName(e) == "Addr" && isGLReceiver(e) {
			return famGL
		}
	case *ast.SelectorExpr:
		if e.Sel.Name == "glVer" {
			return famGLVer
		}
	case *ast.Ident:
		if e.Name == "glVer" {
			return famGLVer
		}
	}
	return famOther
}

// isGLReceiver reports whether the call's method receiver expression is the
// fallback lock field/variable `gl` (l.gl.Addr(), l.gl.IsLocked(),
// l.gl.Wake()), matched structurally like the addr-family helpers.
func isGLReceiver(call *ast.CallExpr) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.SelectorExpr:
		return recv.Sel.Name == "gl"
	case *ast.Ident:
		return recv.Name == "gl"
	}
	return false
}

// classifyValue recognizes the stored values the ordering rules depend on.
func classifyValue(e ast.Expr) storedVal {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		switch e.Name {
		case "stateWriter":
			return valStateWriter
		case "stateEmpty":
			return valStateEmpty
		}
	case *ast.BasicLit:
		if e.Kind == token.INT && e.Value == "0" {
			return valZero
		}
	}
	return valOther
}

// isRetract reports whether ev withdraws the reader's publication: an
// explicit retract call or a stateEmpty store to the state word.
func isRetract(ev event) bool {
	return ev.kind == evRetract || ev.kind == evStore && ev.fam == famState && ev.val == valStateEmpty
}
