// Package snapfreeze enforces the copy-on-write publication discipline:
// a struct that readers reach through an atomic pointer swap is
// write-once. Queries run lock-free against the published value (the
// node's snapshot, the frozen delta segments, the static index tables),
// so any field assignment after publish is a data race the race
// detector only catches if a test happens to interleave it.
//
// A struct type is "frozen" when either
//
//   - some struct in the same package holds a field of type
//     sync/atomic.Pointer[T] — the publication pattern itself marks the
//     pointee, or
//   - its declaration carries a //plshvet:frozen <reason> directive,
//     for types published indirectly (e.g. reached through a snapshot
//     built in another package).
//
// Assignments to a frozen struct's fields (including op= and ++/--)
// are legal only inside functions that visibly run before publish:
//
//   - constructors and builders — same-package functions whose result
//     list includes the frozen type (T, *T, []T, ...), or
//   - functions and methods marked //plshvet:prepublish <reason>, for
//     in-place build steps that mutate and return nothing (reservoir
//     capping, tombstone compaction, pre-freeze delta writes guarded by
//     runtime checks).
//
// The check is package-local: a frozen type's fields must be unexported
// or treated as read-only by convention across packages (the analyzer
// cannot see foreign writes without cross-package facts). Element
// writes through slice fields (t.Rank[i] = x) are likewise out of
// scope — the invariant enforced here is that the struct's own fields
// never change after the pointer swap.
package snapfreeze

import (
	"go/ast"
	"go/types"
	"strings"

	"plsh/internal/analysis/framework"
)

// Analyzer is the snapfreeze analyzer.
var Analyzer = &framework.Analyzer{
	Name: "snapfreeze",
	Doc:  "structs published by atomic pointer swap are write-once: field assignments outside constructors/builders or //plshvet:prepublish functions are findings",
	Run:  run,
}

// frozenType records why a named struct type is write-once, for the
// diagnostic text.
type frozenType struct {
	named  *types.Named
	reason string // "published via X.f" or "declared //plshvet:frozen"
}

func run(pass *framework.Pass) error {
	decls := framework.CollectTypeSpecs(pass.Files)
	frozen := map[*types.Named]*frozenType{}

	// Directive-frozen types. A //plshvet:frozen with no reason is
	// malformed — suppressions and classifications stay auditable.
	for name, td := range decls {
		d := framework.TypeDirective(decls, name, "frozen")
		if d == nil {
			continue
		}
		if strings.TrimSpace(d.Args) == "" {
			pass.Reportf(td.Spec.Pos(), "malformed //plshvet:frozen: want \"//plshvet:frozen <reason>\"")
			continue
		}
		obj, ok := pass.Pkg.Scope().Lookup(name).(*types.TypeName)
		if !ok {
			continue
		}
		named, ok := obj.Type().(*types.Named)
		if !ok {
			continue
		}
		if _, ok := named.Underlying().(*types.Struct); !ok {
			pass.Reportf(td.Spec.Pos(), "//plshvet:frozen applies to struct types only")
			continue
		}
		frozen[named] = &frozenType{named: named, reason: "declared //plshvet:frozen"}
	}

	// Auto-frozen types: T is frozen when any struct in the package has
	// a field of type sync/atomic.Pointer[T] — that field is the
	// publication point.
	for holderName, td := range decls {
		st, ok := pass.TypeOf(td.Spec.Type).(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			pointee := atomicPointee(f.Type())
			if pointee == nil || pointee.Obj().Pkg() != pass.Pkg {
				continue
			}
			if _, ok := pointee.Underlying().(*types.Struct); !ok {
				continue
			}
			if frozen[pointee] == nil {
				frozen[pointee] = &frozenType{
					named:  pointee,
					reason: "published via atomic.Pointer field " + holderName + "." + f.Name(),
				}
			}
		}
	}
	if len(frozen) == 0 {
		return nil
	}

	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if d := funcDirective(fd, "prepublish"); d != nil {
				if strings.TrimSpace(d.Args) == "" {
					pass.Reportf(fd.Pos(), "malformed //plshvet:prepublish: want \"//plshvet:prepublish <reason>\"")
				}
				continue // mutation allowed: declared to run before publish
			}
			allowed := builderResults(pass, fd)
			check := func(lhs ast.Expr) {
				named, fieldName := frozenFieldWrite(pass, lhs, frozen)
				if named == nil || allowed[named] {
					return
				}
				ft := frozen[named]
				pass.Reportf(lhs.Pos(),
					"write to %s.%s outside a constructor: %s is write-once (%s); build it in a function returning %s or mark this one //plshvet:prepublish <reason>",
					named.Obj().Name(), fieldName, named.Obj().Name(), ft.reason, named.Obj().Name())
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range s.Lhs {
						check(lhs)
					}
				case *ast.IncDecStmt:
					check(s.X)
				}
				return true
			})
		}
	}
	return nil
}

// atomicPointee returns T when t is sync/atomic.Pointer[T] for a named
// T, else nil.
func atomicPointee(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" || obj.Name() != "Pointer" {
		return nil
	}
	args := named.TypeArgs()
	if args == nil || args.Len() != 1 {
		return nil
	}
	arg := args.At(0)
	if p, ok := arg.(*types.Pointer); ok {
		arg = p.Elem()
	}
	pointee, ok := arg.(*types.Named)
	if !ok {
		return nil
	}
	return pointee
}

// builderResults returns the frozen types appearing in fd's result list
// (as T, *T, []T, ...): fd constructs those values, so writing their
// fields is the pre-publish build step.
func builderResults(pass *framework.Pass, fd *ast.FuncDecl) map[*types.Named]bool {
	out := map[*types.Named]bool{}
	if fd.Type.Results == nil {
		return out
	}
	for _, r := range fd.Type.Results.List {
		t := pass.TypeOf(r.Type)
		for {
			switch u := t.(type) {
			case *types.Pointer:
				t = u.Elem()
				continue
			case *types.Slice:
				t = u.Elem()
				continue
			case *types.Array:
				t = u.Elem()
				continue
			}
			break
		}
		if named, ok := t.(*types.Named); ok {
			out[named] = true
		}
	}
	return out
}

// frozenFieldWrite reports whether lhs writes a field of a frozen
// struct, returning the frozen type and field name.
func frozenFieldWrite(pass *framework.Pass, lhs ast.Expr, frozen map[*types.Named]*frozenType) (*types.Named, string) {
	for {
		p, ok := lhs.(*ast.ParenExpr)
		if !ok {
			break
		}
		lhs = p.X
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	selection, ok := pass.TypesInfo.Selections[sel]
	if !ok || selection.Kind() != types.FieldVal {
		return nil, ""
	}
	recv := selection.Recv()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || frozen[named] == nil {
		return nil, ""
	}
	return named, sel.Sel.Name
}

// funcDirective returns the //plshvet:<verb> directive in fd's doc
// comment, or nil.
func funcDirective(fd *ast.FuncDecl, verb string) *framework.Directive {
	if fd.Doc == nil {
		return nil
	}
	for _, c := range fd.Doc.List {
		const prefix = "//plshvet:"
		if !strings.HasPrefix(c.Text, prefix) {
			continue
		}
		rest := strings.TrimPrefix(c.Text, prefix)
		v, args, _ := strings.Cut(rest, " ")
		if strings.TrimSpace(v) == verb {
			return &framework.Directive{Pos: c.Pos(), Verb: verb, Args: strings.TrimSpace(args)}
		}
	}
	return nil
}
