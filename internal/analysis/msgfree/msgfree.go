// Package msgfree defines the cbvet analyzer that audits the
// *memtypes.Message free-list discipline.
//
// PR 1 replaced per-message heap allocation with an explicit free list
// threaded through noc/mesi/vips: senders obtain messages from
// Mesh.NewMessage and the final consumer returns them with Mesh.Free.
// The contract is ownership-style and invisible to the type system:
// each delivered message must be freed exactly once per terminal path,
// never used after Free, and never freed twice (the pool would hand the
// same message to two senders — a silent state-corruption bug).
//
// The analyzer runs a conservative, branch-sensitive abstract
// interpretation over every function and closure body. Tracked values
// are message-typed parameters, captured message variables, and locals
// allocated via NewMessage/Get. Aliasing and hand-off (passing the
// message to another call, storing it, capturing it in a later closure)
// conservatively end tracking, so diagnostics are reserved for paths the
// analysis fully understands:
//
//   - double free: Free/Put reached twice on one path
//   - use after free: any read of a possibly-freed message
//   - leak: a locally allocated message that reaches function exit
//     unfreed and un-handed-off, or a parameter freed on one path but
//     still owned on another (inconsistent terminal paths)
package msgfree

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer enforces the Message free-list ownership discipline.
var Analyzer = &analysis.Analyzer{
	Name: "msgfree",
	Doc: `audit *memtypes.Message Free discipline (double free, use after free, leak)

Messages come from the per-mesh free list (Mesh.NewMessage / MsgPool.Get)
and must be returned exactly once (Mesh.Free / MsgPool.Put) by their
final consumer. The analyzer tracks message-typed locals, parameters and
closure captures along each branch of a function and reports frees that
can execute twice, reads of freed messages, and messages that leak from
a terminal path. Handing a message to another function or storing it
ends tracking (ownership transferred).`,
	Run: run,
}

// state is a may-bitset over one tracked variable's path states.
type state uint8

const (
	mayOwned state = 1 << iota
	mayFreed
	escaped // aliased or handed off: no longer tracked
)

type cell struct {
	st state
	// alloc is the position of the local NewMessage/Get call, or NoPos
	// for parameters and captures.
	alloc token.Pos
	// freePos remembers the most recent Free for double-free messages.
	freePos token.Pos
}

type env map[*types.Var]*cell

func (e env) clone() env {
	out := make(env, len(e))
	for v, c := range e {
		cp := *c
		out[v] = &cp
	}
	return out
}

// merge folds o into e (both post-states of sibling branches).
func (e env) merge(o env) {
	for v, oc := range o {
		if ec, ok := e[v]; ok {
			ec.st |= oc.st
			if ec.freePos == token.NoPos {
				ec.freePos = oc.freePos
			}
		} else {
			cp := *oc
			e[v] = &cp
		}
	}
}

func run(pass *analysis.Pass) error {
	for _, file := range pass.Files {
		if pass.InTestFile(file.Pos()) {
			continue
		}
		// Analyze every function declaration and every closure as an
		// independent unit: ownership is per-activation, and the
		// simulator's scheduled closures free messages their creator
		// handed off.
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					analyzeUnit(pass, n.Type, n.Body, nil)
				}
			case *ast.FuncLit:
				analyzeUnit(pass, n.Type, n.Body, n)
			}
			return true
		})
	}
	return nil
}

// unit analyzes one function or closure body.
type unit struct {
	pass      *analysis.Pass
	lit       *ast.FuncLit // non-nil for closures
	everFreed map[*types.Var]bool
	reported  map[string]bool
}

func analyzeUnit(pass *analysis.Pass, ftype *ast.FuncType, body *ast.BlockStmt, lit *ast.FuncLit) {
	u := &unit{
		pass:      pass,
		lit:       lit,
		everFreed: map[*types.Var]bool{},
		reported:  map[string]bool{},
	}
	e := env{}

	// Track message-typed parameters.
	if ftype.Params != nil {
		for _, field := range ftype.Params.List {
			for _, name := range field.Names {
				if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok && isMessagePtr(v.Type()) {
					e[v] = &cell{st: mayOwned}
				}
			}
		}
	}
	// Track message variables captured by this closure.
	if lit != nil {
		for v := range capturedMessages(pass, lit) {
			e[v] = &cell{st: mayOwned}
		}
	}

	exit, terminated := u.walkStmt(e, body)
	if !terminated {
		u.checkExit(exit, body.End())
	}
}

// capturedMessages returns message-typed variables used by lit but
// declared outside it.
func capturedMessages(pass *analysis.Pass, lit *ast.FuncLit) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested closures are their own unit
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.TypesInfo.Uses[id].(*types.Var)
		if !ok || v.IsField() || !isMessagePtr(v.Type()) {
			return true
		}
		if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
			out[v] = true
		}
		return true
	})
	return out
}

// isMessagePtr reports whether t is *memtypes.Message.
func isMessagePtr(t types.Type) bool {
	pt, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := pt.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Message" && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/memtypes")
}

func (u *unit) reportf(pos token.Pos, format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	key := fmt.Sprintf("%d:%s", pos, msg)
	if u.reported[key] {
		return
	}
	u.reported[key] = true
	u.pass.Reportf(pos, "%s", msg)
}

// checkExit reports leaks at a terminal point of the unit.
func (u *unit) checkExit(e env, pos token.Pos) {
	for v, c := range e {
		if c.st&escaped != 0 || c.st&mayOwned == 0 {
			continue
		}
		switch {
		case c.alloc != token.NoPos:
			u.reportf(c.alloc, "msgfree: message %q allocated here may leak: a path reaches %s without Free, Send, or hand-off", v.Name(), u.pass.Fset.Position(pos))
		case u.everFreed[v]:
			u.reportf(pos, "msgfree: message %q is freed on some paths but still owned when this path returns: terminal paths must free exactly once", v.Name())
		}
	}
}

// walkStmt interprets stmt in e, returning the post-state and whether
// the statement terminates the path (return/panic).
func (u *unit) walkStmt(e env, stmt ast.Stmt) (env, bool) {
	switch s := stmt.(type) {
	case nil:
		return e, false
	case *ast.BlockStmt:
		for _, st := range s.List {
			var term bool
			e, term = u.walkStmt(e, st)
			if term {
				return e, true
			}
		}
		return e, false

	case *ast.ExprStmt:
		if isPanic(u.pass, s.X) {
			u.walkExpr(e, s.X)
			return e, true
		}
		u.walkExpr(e, s.X)
		return e, false

	case *ast.AssignStmt:
		return u.walkAssign(e, s), false

	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, val := range vs.Values {
					u.walkExpr(e, val)
				}
				for i, name := range vs.Names {
					v, ok := u.pass.TypesInfo.Defs[name].(*types.Var)
					if !ok || !isMessagePtr(v.Type()) {
						continue
					}
					var init ast.Expr
					if i < len(vs.Values) {
						init = vs.Values[i]
					}
					e[v] = u.cellFor(init)
				}
			}
		}
		return e, false

	case *ast.ReturnStmt:
		for _, r := range s.Results {
			u.escapeOrUse(e, r, "returned")
		}
		u.checkExit(e, s.Pos())
		return e, true

	case *ast.IfStmt:
		e, _ = u.walkStmt(e, s.Init)
		u.walkExpr(e, s.Cond)
		thenEnv, thenTerm := u.walkStmt(e.clone(), s.Body)
		elseEnv, elseTerm := e, false
		if s.Else != nil {
			elseEnv, elseTerm = u.walkStmt(e.clone(), s.Else)
		}
		switch {
		case thenTerm && elseTerm:
			return e, true
		case thenTerm:
			return elseEnv, false
		case elseTerm:
			return thenEnv, false
		default:
			thenEnv.merge(elseEnv)
			return thenEnv, false
		}

	case *ast.SwitchStmt:
		e, _ = u.walkStmt(e, s.Init)
		if s.Tag != nil {
			u.walkExpr(e, s.Tag)
		}
		return u.walkCases(e, s.Body), false

	case *ast.TypeSwitchStmt:
		e, _ = u.walkStmt(e, s.Init)
		u.walkStmt(e, s.Assign)
		return u.walkCases(e, s.Body), false

	case *ast.ForStmt:
		e, _ = u.walkStmt(e, s.Init)
		u.walkExpr(e, s.Cond)
		bodyEnv, term := u.walkStmt(e.clone(), s.Body)
		if !term {
			u.walkStmt(bodyEnv, s.Post)
			e.merge(bodyEnv)
		}
		return e, false

	case *ast.RangeStmt:
		u.walkExpr(e, s.X)
		bodyEnv, term := u.walkStmt(e.clone(), s.Body)
		if !term {
			e.merge(bodyEnv)
		}
		return e, false

	case *ast.DeferStmt:
		// Treat the deferred call as executing here: conservative for
		// ordering, correct for ownership hand-off.
		u.walkExpr(e, s.Call)
		return e, false

	case *ast.GoStmt:
		u.walkExpr(e, s.Call)
		return e, false

	case *ast.SendStmt:
		u.escapeOrUse(e, s.Value, "sent on a channel")
		u.walkExpr(e, s.Chan)
		return e, false

	case *ast.IncDecStmt:
		u.walkExpr(e, s.X)
		return e, false

	case *ast.LabeledStmt:
		return u.walkStmt(e, s.Stmt)

	case *ast.BranchStmt:
		// break/continue/goto: stop interpreting this straight-line
		// sequence; the loop-level merge keeps the analysis sound
		// enough for the patterns in this codebase.
		return e, true

	case *ast.SelectStmt:
		for _, cl := range s.Body.List {
			if cc, ok := cl.(*ast.CommClause); ok {
				ce := e.clone()
				ce, _ = u.walkStmt(ce, cc.Comm)
				for _, st := range cc.Body {
					var term bool
					ce, term = u.walkStmt(ce, st)
					if term {
						break
					}
				}
				e.merge(ce)
			}
		}
		return e, false

	default:
		return e, false
	}
}

// walkCases interprets a switch body: each clause runs from the
// pre-state; non-terminating clauses merge. Without a default clause the
// pre-state itself is a possible post-state and is already the merge
// base.
func (u *unit) walkCases(e env, body *ast.BlockStmt) env {
	out := e.clone()
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		ce := e.clone()
		for _, x := range cc.List {
			u.walkExpr(ce, x)
		}
		term := false
		for _, st := range cc.Body {
			ce, term = u.walkStmt(ce, st)
			if term {
				break
			}
		}
		if !term {
			out.merge(ce)
		}
	}
	return out
}

// walkAssign handles assignments: RHS uses first, then LHS rebindings
// and stores.
func (u *unit) walkAssign(e env, s *ast.AssignStmt) env {
	// A message on the RHS that is stored anywhere is handed off.
	for i, rhs := range s.Rhs {
		// x := mesh.NewMessage(...) / x = msg are handled as rebindings
		// below when LHS is a tracked variable; everything else is a
		// hand-off.
		if len(s.Lhs) == len(s.Rhs) {
			if lhsVar(u.pass, s.Lhs[i]) != nil {
				u.walkExpr(e, rhs)
				continue
			}
		}
		u.escapeOrUse(e, rhs, "stored")
	}
	for i, lhs := range s.Lhs {
		if v := lhsVar(u.pass, lhs); v != nil {
			if !isMessagePtr(v.Type()) {
				continue
			}
			var rhs ast.Expr
			if len(s.Lhs) == len(s.Rhs) {
				rhs = s.Rhs[i]
			}
			e[v] = u.cellFor(rhs)
			continue
		}
		// Writing through a tracked message (msg.Field = x) is a use;
		// writing a message into a structure is a hand-off of the RHS
		// (handled above). The LHS expression itself may read tracked
		// variables.
		u.walkExpr(e, lhs)
	}
	return e
}

// lhsVar resolves lhs to a directly assigned local variable (ident),
// or nil for selector/index stores.
func lhsVar(pass *analysis.Pass, lhs ast.Expr) *types.Var {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok || id.Name == "_" {
		return nil
	}
	if v, ok := pass.TypesInfo.Defs[id].(*types.Var); ok {
		return v
	}
	if v, ok := pass.TypesInfo.Uses[id].(*types.Var); ok {
		return v
	}
	return nil
}

// cellFor classifies the RHS of a message-variable binding.
func (u *unit) cellFor(rhs ast.Expr) *cell {
	if rhs != nil {
		if call, ok := ast.Unparen(rhs).(*ast.CallExpr); ok {
			if name := calleeName(u.pass, call); name == "NewMessage" || name == "Get" {
				return &cell{st: mayOwned, alloc: call.Pos()}
			}
		}
	}
	// Unknown provenance (aliasing another variable, field read, nil):
	// do not track.
	return &cell{st: escaped}
}

// walkExpr interprets an expression for uses of tracked variables.
func (u *unit) walkExpr(e env, expr ast.Expr) {
	if expr == nil {
		return
	}
	switch x := expr.(type) {
	case *ast.CallExpr:
		u.walkCall(e, x)
	case *ast.FuncLit:
		// Captured messages are handed off to the closure (which is
		// analyzed as its own unit).
		for v := range capturedMessages(u.pass, x) {
			if c, ok := e[v]; ok {
				u.useCheck(e, v, x.Pos(), "captured by closure")
				c.st = escaped
			}
		}
	case *ast.Ident:
		if v, ok := u.pass.TypesInfo.Uses[x].(*types.Var); ok {
			u.useCheck(e, v, x.Pos(), "read")
		}
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			u.escapeOrUse(e, x.X, "address taken")
			return
		}
		u.walkExpr(e, x.X)
	case *ast.ParenExpr:
		u.walkExpr(e, x.X)
	case *ast.SelectorExpr:
		u.walkExpr(e, x.X)
	case *ast.StarExpr:
		u.walkExpr(e, x.X)
	case *ast.IndexExpr:
		u.walkExpr(e, x.X)
		u.walkExpr(e, x.Index)
	case *ast.BinaryExpr:
		u.walkExpr(e, x.X)
		u.walkExpr(e, x.Y)
	case *ast.CompositeLit:
		for _, elt := range x.Elts {
			if kv, ok := elt.(*ast.KeyValueExpr); ok {
				elt = kv.Value
			}
			u.escapeOrUse(e, elt, "stored in a composite literal")
		}
	case *ast.TypeAssertExpr:
		u.walkExpr(e, x.X)
	case *ast.SliceExpr:
		u.walkExpr(e, x.X)
	}
}

// walkCall interprets a call: Free/Put transitions, hand-offs, and
// plain uses.
func (u *unit) walkCall(e env, call *ast.CallExpr) {
	// Evaluate the callee expression (its base may read tracked vars,
	// e.g. msg.Req.Kind in a method call position).
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		u.walkExpr(e, sel.X)
	}

	name := calleeName(u.pass, call)
	if (name == "Free" || name == "Put") && len(call.Args) == 1 {
		if v := argVar(u.pass, call.Args[0]); v != nil && isMessagePtr(v.Type()) {
			if c, ok := e[v]; ok && c.st&escaped == 0 {
				if c.st&mayFreed != 0 {
					prev := ""
					if c.freePos != token.NoPos {
						prev = fmt.Sprintf(" (previous free at %s)", u.pass.Fset.Position(c.freePos))
					}
					u.reportf(call.Pos(), "msgfree: message %q may already be freed on this path%s: double free corrupts the free list", v.Name(), prev)
				}
				c.st = mayFreed
				c.freePos = call.Pos()
				u.everFreed[v] = true
				return
			}
		}
	}

	for _, arg := range call.Args {
		u.escapeOrUse(e, arg, "passed to "+callLabel(name))
	}
}

// escapeOrUse handles a tracked variable appearing in a hand-off
// position: flag if freed, then stop tracking. Non-variable expressions
// are walked for nested uses.
func (u *unit) escapeOrUse(e env, expr ast.Expr, how string) {
	if expr == nil {
		return
	}
	if v := argVar(u.pass, expr); v != nil {
		if c, ok := e[v]; ok {
			u.useCheck(e, v, expr.Pos(), how)
			c.st = escaped
		}
		return
	}
	u.walkExpr(e, expr)
}

// useCheck reports a read of a possibly-freed tracked variable.
func (u *unit) useCheck(e env, v *types.Var, pos token.Pos, how string) {
	c, ok := e[v]
	if !ok || c.st&escaped != 0 {
		return
	}
	if c.st&mayFreed != 0 {
		where := ""
		if c.freePos != token.NoPos {
			where = fmt.Sprintf(" (freed at %s)", u.pass.Fset.Position(c.freePos))
		}
		u.reportf(pos, "msgfree: message %q %s after Free%s: the pool may already have reissued it", v.Name(), how, where)
	}
}

// argVar resolves an expression to a plain variable reference.
func argVar(pass *analysis.Pass, expr ast.Expr) *types.Var {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	v, ok := pass.TypesInfo.Uses[id].(*types.Var)
	if !ok || v.IsField() {
		return nil
	}
	return v
}

func calleeName(pass *analysis.Pass, call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}

func callLabel(name string) string {
	if name == "" {
		return "a call"
	}
	return name
}

func isPanic(pass *analysis.Pass, expr ast.Expr) bool {
	call, ok := ast.Unparen(expr).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := pass.TypesInfo.Uses[id].(*types.Builtin)
	return ok && b.Name() == "panic"
}
