package interleave

import (
	"fmt"
	"go/ast"
	"go/types"
	"os"
	"path/filepath"

	"sprwl/internal/analysis/driver"
)

// This file defines the symbolic value domain the extractor lowers over,
// and the binding machinery that closes an annotated function against a
// concrete model configuration (addresses, options, thread identity).
//
// The extractor is partial by design: it understands exactly the Go subset
// the //sprwl:model-annotated protocol code uses, and fails loudly on
// anything else. A model that silently under-approximated the real code
// would be worse than no model.

// cellKind classifies a leaf memory cell bound through a region layout.
type cellKind uint8

const (
	plainCell  cellKind = iota // ordinary struct field, guarded by a mutex
	atomicCell                 // sync/atomic field (SC)
	mutexCell                  // sync.Mutex
	condCell                   // sync.Cond sharing the mutex's cell
)

// object is a symbolic heap object: a named bundle of field values the
// extractor resolves selectors against. Objects model the Go-side structs
// of the protocol (Lock, handle, SpinMutex, Hub, Waiter, the indicator
// backends); their numeric fields are bound to constants (addresses,
// options, slots) or spill into registers, and their reference fields
// point at further objects.
type object struct {
	// kind is the object's concrete type name, used for intrinsic
	// dispatch (e.g. "env", "ring", "park.Waiter", "park.Table").
	kind string
	// name labels the object in error messages.
	name string
	// fields maps field names to their current values.
	fields map[string]*absVal
	// isNil marks a typed nil (an absent backend); any method call or
	// field access lowered against it becomes an OpTrap.
	isNil bool
	// ref locates the object's concrete type for resolving interface
	// method calls (park.Parker dispatching to park.Table) to source.
	ref funcRef
}

// region is a pointer into modeled shared memory with a field layout:
// how park.shard (and arrays of it) are bound. stride > 0 marks an array
// of elements; indexing yields the element region.
type region struct {
	name   string
	base   *Expr
	stride int
	fields map[string]regionField
}

type regionField struct {
	off  int
	kind cellKind
}

// cellRef is a resolved leaf cell: an address expression plus the kind
// that selects the lowering (plain load/store, atomic, mutex, cond).
type cellRef struct {
	addr *Expr
	kind cellKind
}

// absVal is one symbolic value: exactly one arm is set.
type absVal struct {
	x    *Expr    // numeric value
	obj  *object  // heap object
	reg  *region  // pointer into modeled memory
	cell *cellRef // leaf cell
	fn   string   // func value, dispatched as an intrinsic ("envload", "csbody")
}

func numVal(e *Expr) *absVal      { return &absVal{x: e} }
func objVal(o *object) *absVal    { return &absVal{obj: o} }
func regionVal(r *region) *absVal { return &absVal{reg: r} }

func (v *absVal) describe() string {
	switch {
	case v == nil:
		return "<missing>"
	case v.x != nil:
		return "num(" + v.x.String() + ")"
	case v.obj != nil:
		if v.obj.isNil {
			return "nil-object(" + v.obj.name + ")"
		}
		return "object(" + v.obj.name + ")"
	case v.reg != nil:
		return "region(" + v.reg.name + ")"
	case v.cell != nil:
		return "cell"
	case v.fn != "":
		return "func(" + v.fn + ")"
	}
	return "<zero>"
}

// newObject builds a bound object.
func newObject(kind, name string, fields map[string]*absVal) *object {
	if fields == nil {
		fields = map[string]*absVal{}
	}
	return &object{kind: kind, name: name, fields: fields}
}

// nilObject builds a typed nil of the given kind.
func nilObject(kind, name string) *object {
	return &object{kind: kind, name: name, isNil: true, fields: map[string]*absVal{}}
}

// shardLayout is the memory layout of one park.shard: the condvar shares
// the mutex cell (a sync.Cond is addressed through its locker here), gen
// and the waiter count get their own cells. Three cells per shard.
const shardCells = 3

func shardLayout() map[string]regionField {
	return map[string]regionField{
		"mu":      {off: 0, kind: mutexCell},
		"cond":    {off: 0, kind: condCell},
		"gen":     {off: 1, kind: plainCell},
		"waiters": {off: 2, kind: atomicCell},
	}
}

// extractOpts parameterizes one extraction: thread role and identity.
type extractOpts struct {
	// site is the root site label ("R0", "W").
	site string
	// role selects the critical-section body lowered for rwlock.Body
	// invocations: csReader emits load/load/assert over the data cells,
	// csWriter emits store/store.
	role csRole
	// writeVal is the value a writer body stores (unique per thread so a
	// torn section is observable).
	writeVal uint64
	// dataCells are the two shared words critical-section bodies touch:
	// writers store writeVal to both, readers load both and assert
	// equality (the torn-section check).
	dataCells [2]uint64
}

type csRole uint8

const (
	csReader csRole = iota
	csWriter
)

// extractor loads the module once and compiles annotated functions
// against bindings.
type extractor struct {
	prog *driver.Program
	pkgs map[string]*driver.Package
}

// newExtractor builds an extractor rooted at the module containing dir
// (any directory under the module).
func newExtractor(dir string) (*extractor, error) {
	root, err := findModuleRoot(dir)
	if err != nil {
		return nil, err
	}
	prog, err := driver.NewProgram(root)
	if err != nil {
		return nil, err
	}
	return &extractor{prog: prog, pkgs: map[string]*driver.Package{}}, nil
}

func findModuleRoot(dir string) (string, error) {
	d, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(d, "go.mod")); err == nil {
			return d, nil
		}
		parent := filepath.Dir(d)
		if parent == d {
			return "", fmt.Errorf("interleave: no go.mod at or above %s", dir)
		}
		d = parent
	}
}

func (ex *extractor) pkg(path string) (*driver.Package, error) {
	if p, ok := ex.pkgs[path]; ok {
		return p, nil
	}
	p, err := ex.prog.Load(path)
	if err != nil {
		return nil, err
	}
	ex.pkgs[path] = p
	return p, nil
}

// funcRef names a function or method in the module.
type funcRef struct {
	pkgPath string
	// recv is the receiver type name ("handle", "Table"); empty for
	// package-level functions.
	recv string
	name string
}

func (r funcRef) String() string {
	if r.recv != "" {
		return r.pkgPath + "." + r.recv + "." + r.name
	}
	return r.pkgPath + "." + r.name
}

// lookup resolves a funcRef to its declaration.
func (ex *extractor) lookup(r funcRef) (*driver.Package, *ast.FuncDecl, error) {
	pkg, err := ex.pkg(r.pkgPath)
	if err != nil {
		return nil, nil, err
	}
	var fn *types.Func
	if r.recv == "" {
		obj := pkg.Types.Scope().Lookup(r.name)
		f, ok := obj.(*types.Func)
		if !ok {
			return nil, nil, fmt.Errorf("interleave: %s: no such function", r)
		}
		fn = f
	} else {
		obj := pkg.Types.Scope().Lookup(r.recv)
		tn, ok := obj.(*types.TypeName)
		if !ok {
			return nil, nil, fmt.Errorf("interleave: %s: no such type %s", r, r.recv)
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			return nil, nil, fmt.Errorf("interleave: %s: %s is not a named type", r, r.recv)
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Name() == r.name {
				fn = m
				break
			}
		}
		if fn == nil {
			return nil, nil, fmt.Errorf("interleave: %s: no such method", r)
		}
	}
	src, ok := ex.prog.FuncSource(fn)
	if !ok {
		return nil, nil, fmt.Errorf("interleave: %s: no source (not a module function)", r)
	}
	return src.Pkg, src.Decl, nil
}

// extractRoot compiles an annotated protocol function into a thread
// program. The root (and every protocol method inlined under it) must
// carry the //sprwl:model directive; pure helpers inline freely.
func (ex *extractor) extractRoot(r funcRef, recv *absVal, args []*absVal, opts extractOpts) (*Prog, error) {
	pkg, decl, err := ex.lookup(r)
	if err != nil {
		return nil, err
	}
	if !driver.HasDirective(decl.Doc, "model") {
		return nil, fmt.Errorf("interleave: %s: missing //sprwl:model directive (the extraction surface is explicit)", r)
	}
	lo := &lowerer{ex: ex, opts: opts}
	if _, err := lo.inlineDecl(pkg, decl, recv, args, opts.site, nil); err != nil {
		return nil, err
	}
	lo.emit(Instr{Op: OpHalt, Site: opts.site, Pos: lo.posOf(pkg, decl.Name.Pos())})
	p := &Prog{Name: r.String(), Code: lo.out, NRegs: int(lo.nextReg)}
	return p, nil
}
