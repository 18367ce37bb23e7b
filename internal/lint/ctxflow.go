package lint

import (
	"go/ast"
	"go/types"
)

// ctxflowScope is the request-path layer set: packages whose functions
// run under a caller's deadline and cancellation. Inside them,
// context.Background() and context.TODO() sever the chain — a query
// that should die with its request keeps running.
var ctxflowScope = []string{"internal/kb", "internal/server", "internal/eval", "internal/core"}

// CtxFlow enforces context propagation:
//
//  1. Below entry-point depth (the ctxflowScope packages), calls to
//     context.Background and context.TODO are rejected unless the
//     enclosing function's doc carries //kdb:entrypoint — an audited
//     function that IS the documented start of a context chain (such as
//     server.New, whose context.Background stands in for an unset base
//     context).
//  2. Everywhere (cmd and internal alike): a function that already has
//     a context in hand — a context.Context parameter or an
//     *http.Request — must not call a method Foo when a FooContext
//     sibling exists; that call drops the caller's deadline and
//     cancellation on the floor.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc: "no context.Background/TODO below entry-point depth in request paths\n" +
		"(annotate audited entry points with //kdb:entrypoint), and no calls\n" +
		"that drop an in-scope context when a ...Context variant exists",
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) error {
	inScope := pass.PathHasSuffix(ctxflowScope...)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			_, entry := funcDirective(fn, "entrypoint")
			if inScope && !entry {
				checkBackground(pass, fn)
			}
			if hasContextInHand(pass, fn) {
				checkDroppedContext(pass, fn)
			}
		}
	}
	return nil
}

// checkBackground flags context.Background/TODO calls.
func checkBackground(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeObj(pass.Info, call)
		if callee == nil || pkgPathOf(callee) != "context" {
			return true
		}
		if callee.Name() == "Background" || callee.Name() == "TODO" {
			pass.Reportf(call.Pos(), "context.%s below entry-point depth: thread the request context (or annotate the function //kdb:entrypoint if it is an audited chain root)", callee.Name())
		}
		return true
	})
}

// hasContextInHand reports whether fn receives a context.Context or an
// *http.Request parameter — either way, a live request context is in
// scope.
func hasContextInHand(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Type.Params == nil {
		return false
	}
	for _, p := range fn.Type.Params.List {
		t := pass.Info.Types[p.Type].Type
		if t == nil {
			continue
		}
		if isContextType(t) || isHTTPRequestPtr(t) {
			return true
		}
	}
	return false
}

func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Context" && pkgPathOf(named.Obj()) == "context"
}

func isHTTPRequestPtr(t types.Type) bool {
	ptr, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := ptr.Elem().(*types.Named)
	if !ok {
		return false
	}
	return named.Obj().Name() == "Request" && pkgPathOf(named.Obj()) == "net/http"
}

// checkDroppedContext flags calls to Foo where a FooContext sibling
// with a leading context.Context parameter exists and no context is
// being passed.
func checkDroppedContext(pass *Pass, fn *ast.FuncDecl) {
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := calleeObj(pass.Info, call)
		if callee == nil {
			return true
		}
		name := callee.Name()
		if len(name) >= 7 && name[len(name)-7:] == "Context" {
			return true
		}
		// Already passing a context?
		for _, arg := range call.Args {
			if t := pass.Info.Types[arg].Type; t != nil && isContextType(t) {
				return true
			}
		}
		sibling := lookupContextSibling(callee, name+"Context")
		if sibling == nil {
			return true
		}
		pass.Reportf(call.Pos(), "call to %s drops the in-scope context; use %s", name, sibling.Name())
		return true
	})
}

// lookupContextSibling finds FooContext next to Foo: as a method on the
// same receiver type, or as a package-level sibling function. The
// sibling counts only if its first parameter is a context.Context.
func lookupContextSibling(callee *types.Func, want string) *types.Func {
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return nil
	}
	var cand types.Object
	if recv := sig.Recv(); recv != nil {
		obj, _, _ := types.LookupFieldOrMethod(recv.Type(), true, callee.Pkg(), want)
		cand = obj
	} else if callee.Pkg() != nil {
		cand = callee.Pkg().Scope().Lookup(want)
	}
	sibling, ok := cand.(*types.Func)
	if !ok {
		return nil
	}
	ssig, ok := sibling.Type().(*types.Signature)
	if !ok || ssig.Params().Len() == 0 {
		return nil
	}
	if !isContextType(ssig.Params().At(0).Type()) {
		return nil
	}
	return sibling
}
