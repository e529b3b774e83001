package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// HotAlloc enforces Bolt's zero-allocation hot-path discipline at
// compile time. Functions annotated //bolt:hotpath — the batch kernel
// (VotesBatch, votesBlock, PredictBatchInto), the per-sample scan
// (Votes, forEachHit, SalienceInto), the column encoder, the bit-matrix
// transpose and the serve batch shard — must not contain constructs
// that allocate or block:
//
//   - make / append / new / &T{} and map or slice literals (grow
//     scratch buffers outside the hot path instead);
//   - fmt.* calls (hoist panic formatting into cold helpers);
//   - time.Now / time.Since;
//   - channel operations, select, go statements and map iteration;
//   - sync.Mutex / sync.RWMutex lock and unlock;
//   - boxing a non-constant, non-pointer value into an interface;
//   - function literals, unless passed directly to a same-package
//     callee (that pattern — forEachHit's visitor — stays on the stack;
//     anything escaping further is flagged).
//
// hotalloc is the static face of the dynamic AllocsPerRun gates in
// internal/core/alloc_test.go and internal/serve/batch_test.go
// (TestRunBatchZeroAlloc): the tests prove the steady state
// allocates nothing, the analyzer keeps allocation constructs from
// being reintroduced in the first place, and each points at the other
// so neither gate is weakened in isolation.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc:  "flag allocating or blocking constructs inside //bolt:hotpath functions",
	Run:  runHotAlloc,
}

func runHotAlloc(pass *Pass) error {
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasPragma(fd.Doc, "hotpath") {
				continue
			}
			checkHotFunc(pass, fd)
		}
	}
	return nil
}

func checkHotFunc(pass *Pass, fd *ast.FuncDecl) {
	info := pass.TypesInfo
	WalkStack(fd.Body, func(n ast.Node, stack []ast.Node) {
		switch n := n.(type) {
		case *ast.GoStmt:
			pass.Report(n.Pos(), "hot path spawns a goroutine")
		case *ast.SendStmt:
			pass.Report(n.Pos(), "hot path sends on a channel")
		case *ast.SelectStmt:
			pass.Report(n.Pos(), "hot path blocks in select")
		case *ast.UnaryExpr:
			switch n.Op {
			case token.ARROW:
				pass.Report(n.Pos(), "hot path receives from a channel")
			case token.AND:
				if _, ok := n.X.(*ast.CompositeLit); ok {
					pass.Report(n.Pos(), "hot path heap-allocates a composite literal")
				}
			}
		case *ast.CompositeLit:
			if t := info.TypeOf(n); t != nil {
				switch t.Underlying().(type) {
				case *types.Map, *types.Slice:
					pass.Report(n.Pos(), "hot path allocates a %s literal", typeKindName(t))
				}
			}
		case *ast.RangeStmt:
			if t := info.TypeOf(n.X); t != nil {
				switch t.Underlying().(type) {
				case *types.Map:
					pass.Report(n.Pos(), "hot path iterates a map")
				case *types.Chan:
					pass.Report(n.Pos(), "hot path ranges over a channel")
				}
			}
		case *ast.FuncLit:
			if !funcLitStaysLocal(pass, n, stack) {
				pass.Report(n.Pos(), "hot path builds a closure that escapes (pass it directly to a same-package callee or hoist it)")
			}
		case *ast.CallExpr:
			checkHotCall(pass, n)
		case *ast.AssignStmt:
			if n.Tok != token.ASSIGN {
				return
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					reportBoxing(pass, info.TypeOf(lhs), n.Rhs[i], "assignment")
				}
			}
		case *ast.ReturnStmt:
			sig := enclosingSignature(pass, fd, stack)
			if sig == nil || sig.Results().Len() != len(n.Results) {
				return
			}
			for i, res := range n.Results {
				reportBoxing(pass, sig.Results().At(i).Type(), res, "return")
			}
		}
	})
}

// checkHotCall handles the call-shaped violations: builtin allocators,
// fmt and time.Now, mutex methods, and interface boxing of arguments.
func checkHotCall(pass *Pass, call *ast.CallExpr) {
	info := pass.TypesInfo

	// Builtins and conversions first: they have no callee object.
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Report(call.Pos(), "hot path calls make (grow scratch buffers outside //bolt:hotpath functions)")
			case "append":
				pass.Report(call.Pos(), "hot path calls append (write through preallocated scratch instead)")
			case "new":
				pass.Report(call.Pos(), "hot path calls new")
			case "panic":
				if len(call.Args) == 1 {
					reportBoxing(pass, types.NewInterfaceType(nil, nil), call.Args[0], "panic argument")
				}
			}
			return
		}
	}
	// Conversion to an interface type, e.g. error(x) or any(x).
	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() && len(call.Args) == 1 {
		reportBoxing(pass, tv.Type, call.Args[0], "conversion")
		return
	}

	if obj := calleeObject(info, call); obj != nil && obj.Pkg() != nil {
		switch obj.Pkg().Path() {
		case "fmt":
			pass.Report(call.Pos(), "hot path calls fmt.%s (hoist formatting into a cold helper)", obj.Name())
			return
		case "time":
			if obj.Name() == "Now" || obj.Name() == "Since" {
				pass.Report(call.Pos(), "hot path calls time.%s", obj.Name())
				return
			}
		}
	}
	if se, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if sel := info.Selections[se]; sel != nil && sel.Kind() == types.MethodVal {
			if isSyncMutex(sel.Recv()) {
				switch se.Sel.Name {
				case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock":
					pass.Report(call.Pos(), "hot path takes a mutex (%s)", se.Sel.Name)
					return
				}
			}
		}
	}

	// Interface boxing of arguments.
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				continue // a []T... spread does not box elements
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		}
		reportBoxing(pass, pt, arg, "argument")
	}
}

// reportBoxing flags storing a non-constant, non-pointer-shaped value
// into an interface: the conversion copies the value to the heap.
// Constants are exempt (the compiler materializes them in static data),
// as are pointer-shaped values (pointers, channels, maps, funcs), which
// fit the interface data word directly.
func reportBoxing(pass *Pass, dst types.Type, src ast.Expr, context string) {
	if dst == nil {
		return
	}
	if _, ok := dst.Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := pass.TypesInfo.Types[src]
	if !ok || tv.Value != nil || tv.IsNil() || tv.Type == nil {
		return
	}
	if types.IsInterface(tv.Type) {
		return
	}
	switch u := tv.Type.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	case *types.Basic:
		if u.Kind() == types.UnsafePointer {
			return
		}
	}
	pass.Report(src.Pos(), "hot path boxes %s into %s (%s allocates)", tv.Type, dst, context)
}

// funcLitStaysLocal reports whether a function literal is passed
// directly as an argument to a same-package function or method — the
// visitor pattern forEachHit uses, which the compiler keeps on the
// stack. Anything else (assigned, returned, sent, passed across a
// package boundary) is treated as escaping.
func funcLitStaysLocal(pass *Pass, lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) == 0 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	isArg := false
	for _, arg := range call.Args {
		if arg == lit {
			isArg = true
			break
		}
	}
	if !isArg {
		return false
	}
	obj := calleeObject(pass.TypesInfo, call)
	return obj != nil && obj.Pkg() == pass.Pkg
}

// enclosingSignature finds the signature governing a return statement:
// the innermost function literal on the stack, or the declaration.
func enclosingSignature(pass *Pass, fd *ast.FuncDecl, stack []ast.Node) *types.Signature {
	for i := len(stack) - 1; i >= 0; i-- {
		if lit, ok := stack[i].(*ast.FuncLit); ok {
			sig, _ := pass.TypesInfo.TypeOf(lit).(*types.Signature)
			return sig
		}
	}
	if fd.Name == nil {
		return nil
	}
	sig, _ := pass.TypesInfo.TypeOf(fd.Name).(*types.Signature)
	return sig
}

func isSyncMutex(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

func typeKindName(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Map:
		return "map"
	case *types.Slice:
		return "slice"
	}
	return t.String()
}
