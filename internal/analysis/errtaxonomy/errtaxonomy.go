// Package errtaxonomy pins the error-inspection contract of the public
// API: wrapped errors (resolve.MemberError carrying a member's failure,
// concretize.UnsatError under the pool) must stay inspectable, so
// callers outside a sentinel's defining package must use errors.Is, and
// extraction of concrete error types must use errors.As.
//
// Flagged:
//
//   - err == pkg.ErrSentinel / err != pkg.ErrSentinel where the sentinel
//     is a package-level error value defined in another package.
//   - err.(*SomeError) / switch err.(type) where the asserted types are
//     defined in another package.
//
// The defining package itself is exempt: that is where Is/As methods
// (e.g. UnsatError.Is comparing against ErrUnsatisfiable) legitimately
// compare identity.
package errtaxonomy

import (
	"go/ast"
	"go/token"
	"go/types"

	"github.com/paper-repo-growth/go-arxiv/internal/analysis"
)

// Analyzer enforces errors.Is/errors.As over identity comparison and type
// assertion for errors crossing package boundaries.
var Analyzer = &analysis.Analyzer{
	Name: "errtaxonomy",
	Doc:  "forbid == against foreign sentinel errors and type assertions on error outside the defining package; require errors.Is / errors.As",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	errorIface := types.Universe.Lookup("error").Type().Underlying().(*types.Interface)
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isNilLiteral(pass, n.X) || isNilLiteral(pass, n.Y) {
					return true // err == nil is always fine
				}
				for _, operand := range []ast.Expr{n.X, n.Y} {
					if s := foreignSentinel(pass, operand, errorIface); s != nil {
						pass.Reportf(n.Pos(),
							"comparison %s against sentinel error %s.%s; use errors.Is",
							n.Op, s.Pkg().Name(), s.Name())
						break
					}
				}
			case *ast.TypeAssertExpr:
				if n.Type == nil {
					return true // part of a type switch, handled below
				}
				if !isErrorExpr(pass, n.X) {
					return true
				}
				if t := foreignErrorType(pass, pass.TypesInfo.Types[n.Type].Type, errorIface); t != nil {
					pass.Reportf(n.Pos(),
						"type assertion on error to %s outside its package; use errors.As", t)
				}
			case *ast.TypeSwitchStmt:
				expr := typeSwitchOperand(n)
				if expr == nil || !isErrorExpr(pass, expr) {
					return true
				}
				for _, stmt := range n.Body.List {
					cc := stmt.(*ast.CaseClause)
					for _, tExpr := range cc.List {
						tv, ok := pass.TypesInfo.Types[tExpr]
						if !ok {
							continue
						}
						if t := foreignErrorType(pass, tv.Type, errorIface); t != nil {
							pass.Reportf(tExpr.Pos(),
								"type switch on error with case %s outside its package; use errors.As", t)
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func isNilLiteral(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	return ok && tv.IsNil()
}

// isErrorExpr reports whether e has static type exactly `error`.
func isErrorExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return types.Identical(tv.Type, types.Universe.Lookup("error").Type())
}

// foreignSentinel resolves e to a package-level error-typed variable
// defined outside the current package, or nil.
func foreignSentinel(pass *analysis.Pass, e ast.Expr, errorIface *types.Interface) *types.Var {
	var obj types.Object
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = pass.TypesInfo.Uses[e]
	case *ast.SelectorExpr:
		obj = pass.TypesInfo.Uses[e.Sel]
	default:
		return nil
	}
	v, ok := obj.(*types.Var)
	if !ok || v.Pkg() == nil || v.Pkg() == pass.Pkg {
		return nil
	}
	if v.Parent() != v.Pkg().Scope() {
		return nil // not package-level
	}
	if !types.Implements(v.Type(), errorIface) {
		return nil
	}
	return v
}

// foreignErrorType returns t if it is an error-implementing named type
// (possibly behind a pointer) defined outside the current package, else
// nil. Interface types (including `error` itself) are not flagged:
// narrowing to a behavior interface is not identity inspection.
func foreignErrorType(pass *analysis.Pass, t types.Type, errorIface *types.Interface) types.Type {
	if t == nil {
		return nil
	}
	if !types.Implements(t, errorIface) {
		return nil
	}
	if types.IsInterface(t) {
		return nil
	}
	core := t
	if p, ok := core.(*types.Pointer); ok {
		core = p.Elem()
	}
	named, ok := core.(*types.Named)
	if !ok {
		return nil
	}
	pkg := named.Obj().Pkg()
	if pkg == nil || pkg == pass.Pkg {
		return nil
	}
	return t
}

func typeSwitchOperand(n *ast.TypeSwitchStmt) ast.Expr {
	var ta *ast.TypeAssertExpr
	switch s := n.Assign.(type) {
	case *ast.ExprStmt:
		ta, _ = s.X.(*ast.TypeAssertExpr)
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			ta, _ = s.Rhs[0].(*ast.TypeAssertExpr)
		}
	}
	if ta == nil {
		return nil
	}
	return ta.X
}
