package fparse

import (
	"fmt"
	"strconv"
	"strings"

	"cachemodel/internal/cerr"
	"cachemodel/internal/ir"
)

// Parse parses FORTRAN-subset source into an ir.Program. The first
// PROGRAM unit (or the first unit of any kind) becomes the entry point.
// Consts supplies values for named compile-time parameters (the paper
// fixes READ-initialised sizes from the reference input the same way).
func Parse(src string, consts map[string]int64) (*ir.Program, error) {
	return ParseOptions(src, Options{Consts: consts})
}

// Options tunes parsing.
type Options struct {
	// Consts fixes named compile-time constants.
	Consts map[string]int64
	// GotoTrips converts backward IF-GOTO loops into DO statements, as the
	// paper does for Swim's and Tomcatv's outer iteration ("the outermost
	// loop is an IF-GOTO construct, which has been converted into a DO
	// statement"): the key is the target statement label, the value the
	// trip count taken from the reference input. A backward GOTO to a
	// label not present here is a parse error (data-dependent loop).
	GotoTrips map[string]int64
}

// ParseOptions is Parse with IF-GOTO conversion support. Malformed input
// yields a positioned *ParseError; the function never panics.
func ParseOptions(src string, opt Options) (prog *ir.Program, err error) {
	defer recoverParse(&prog, &err)
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, consts: opt.Consts, gotoTrips: opt.GotoTrips}
	return p.parseProgram()
}

// maxNest bounds statement nesting and maxExprDepth expression nesting,
// so that pathological input fails with a positioned error instead of
// exhausting the stack.
const (
	maxNest        = 500
	maxExprDepth   = 1000
	maxAffineTerms = 100
)

type parser struct {
	toks      []token
	pos       int
	consts    map[string]int64
	gotoTrips map[string]int64
	gotoSeq   int
	nest      int // statement nesting depth (DO/IF)
	exprDepth int // expression recursion depth
	// pendingGoto carries a just-parsed backward GOTO target up to
	// parseStmts, which performs the loop conversion.
	pendingGoto string

	// Per-unit state.
	arrays     map[string]*ir.Array
	arrayOrder []string // declaration / first-use order
	scalars    map[string]bool
	formals    []string // formal names in order
}

// declareArray registers an array preserving declaration order.
func (p *parser) declareArray(name string, a *ir.Array) {
	if _, ok := p.arrays[name]; !ok {
		p.arrayOrder = append(p.arrayOrder, name)
	}
	p.arrays[name] = a
}

func (p *parser) peek() token {
	if p.pos >= len(p.toks) {
		return p.toks[len(p.toks)-1] // the EOF token
	}
	return p.toks[p.pos]
}

func (p *parser) next() token {
	t := p.peek()
	if p.pos < len(p.toks) {
		p.pos++
	}
	return t
}

func (p *parser) atEOF() bool { return p.peek().kind == tokEOF }

func (p *parser) errf(t token, format string, args ...interface{}) error {
	return perr(t, format, args...)
}

// errModel is errf for program-model violations (non-affine constructs);
// the error matches cerr.ErrNonAffine under errors.Is.
func (p *parser) errModel(t token, format string, args ...interface{}) error {
	e := perr(t, format, args...)
	e.Err = cerr.ErrNonAffine
	return e
}

func (p *parser) skipNewlines() {
	for p.peek().kind == tokNewline {
		p.pos++
	}
}

func (p *parser) expectNewline() error {
	t := p.peek()
	if t.kind != tokNewline && t.kind != tokEOF {
		return p.errf(t, "expected end of statement, found %s", t)
	}
	p.skipNewlines()
	return nil
}

func (p *parser) acceptIdent(words ...string) bool {
	t := p.peek()
	if t.kind != tokIdent {
		return false
	}
	for _, w := range words {
		if t.text == w {
			p.pos++
			return true
		}
	}
	return false
}

func (p *parser) acceptPunct(s string) bool {
	t := p.peek()
	if t.kind == tokPunct && t.text == s {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expectPunct(s string) error {
	if !p.acceptPunct(s) {
		return p.errf(p.peek(), "expected %q, found %s", s, p.peek())
	}
	return nil
}

func (p *parser) parseProgram() (*ir.Program, error) {
	prog := ir.NewProgram("parsed")
	var mainName string
	p.skipNewlines()
	for !p.atEOF() {
		t := p.peek()
		if t.kind != tokIdent || (t.text != "PROGRAM" && t.text != "SUBROUTINE") {
			return nil, p.errf(t, "expected PROGRAM or SUBROUTINE, found %s", t)
		}
		isMain := t.text == "PROGRAM"
		p.pos++
		name := p.peek()
		if name.kind != tokIdent {
			return nil, p.errf(name, "expected unit name")
		}
		p.pos++
		sub, err := p.parseUnit(name.text)
		if err != nil {
			return nil, err
		}
		if _, dup := prog.Subs[sub.Name]; dup {
			return nil, p.errf(name, "duplicate subroutine %s", sub.Name)
		}
		prog.Add(sub)
		if isMain && mainName == "" {
			mainName = sub.Name
			prog.Name = sub.Name
		}
		p.skipNewlines()
	}
	if mainName != "" {
		prog.SetMain(mainName)
	}
	if prog.Main == nil {
		return nil, &ParseError{Msg: "no program units found"}
	}
	return prog, nil
}

// parseUnit parses one PROGRAM/SUBROUTINE after its name token.
func (p *parser) parseUnit(name string) (*ir.Subroutine, error) {
	p.arrays = map[string]*ir.Array{}
	p.arrayOrder = nil
	p.scalars = map[string]bool{}
	p.formals = nil
	sub := &ir.Subroutine{Name: name}

	// Formal parameter list.
	if p.acceptPunct("(") {
		for {
			t := p.next()
			if t.kind != tokIdent {
				return nil, p.errf(t, "expected formal parameter name")
			}
			p.formals = append(p.formals, t.text)
			p.scalars[t.text] = true // scalar until declared with dims
			if p.acceptPunct(")") {
				break
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}

	// Declarations.
	if err := p.parseDecls(); err != nil {
		return nil, err
	}

	// Body.
	body, err := p.parseStmts(map[string]bool{"END": true}, nil)
	if err != nil {
		return nil, err
	}
	if !p.acceptIdent("END") {
		return nil, p.errf(p.peek(), "expected END")
	}
	p.expectNewline()

	sub.Body = body
	// Partition arrays into formals (in order) and locals.
	formalSet := map[string]bool{}
	for _, f := range p.formals {
		formalSet[f] = true
		a, ok := p.arrays[f]
		if !ok {
			// Scalar formal: model as a 1-element array.
			a = ir.NewArray(f, 8, 1)
			p.declareArray(f, a)
		}
		sub.Formals = append(sub.Formals, a)
	}
	for _, n := range p.arrayOrder {
		if !formalSet[n] {
			sub.Locals = append(sub.Locals, p.arrays[n])
		}
	}
	return sub, nil
}

func (p *parser) parseDecls() error {
	for {
		t := p.peek()
		if t.kind != tokIdent {
			return nil
		}
		switch {
		case strings.HasPrefix(t.text, "REAL") || t.text == "INTEGER" || t.text == "DOUBLEPRECISION":
			elem := int64(8)
			if t.text == "INTEGER" || t.text == "REAL" || t.text == "REAL*4" {
				elem = 4
			}
			p.pos++
			if err := p.parseDeclList(elem); err != nil {
				return err
			}
		case t.text == "DIMENSION":
			p.pos++
			if err := p.parseDeclList(8); err != nil {
				return err
			}
		case t.text == "PARAMETER":
			// PARAMETER (NAME = value, ...): add to consts.
			p.pos++
			if err := p.expectPunct("("); err != nil {
				return err
			}
			for {
				nameTok := p.next()
				if nameTok.kind != tokIdent {
					return p.errf(nameTok, "expected parameter name")
				}
				if err := p.expectPunct("="); err != nil {
					return err
				}
				v, err := p.parseConstValue()
				if err != nil {
					return err
				}
				if p.consts == nil {
					p.consts = map[string]int64{}
				}
				p.consts[nameTok.text] = v
				if p.acceptPunct(")") {
					break
				}
				if err := p.expectPunct(","); err != nil {
					return err
				}
			}
			p.expectNewline()
		case t.text == "COMMON" || t.text == "IMPLICIT" || t.text == "SAVE" || t.text == "DATA" || t.text == "EXTERNAL" || t.text == "INTRINSIC":
			// Skip to end of line: storage association beyond DIMENSION is
			// not part of the program model.
			for p.peek().kind != tokNewline && p.peek().kind != tokEOF {
				p.pos++
			}
			p.skipNewlines()
		default:
			return nil
		}
	}
}

// parseDeclList parses "name(dims), name, name(dims)..." after a type or
// DIMENSION keyword.
func (p *parser) parseDeclList(elem int64) error {
	for {
		t := p.next()
		if t.kind != tokIdent {
			return p.errf(t, "expected variable name in declaration")
		}
		name := t.text
		if p.acceptPunct("(") {
			var dims []int64
			done := false
			for !done {
				dim, err := p.parseDim()
				if err != nil {
					return err
				}
				dims = append(dims, dim)
				if p.acceptPunct(")") {
					done = true
				} else if err := p.expectPunct(","); err != nil {
					return err
				}
				// ir.NewArray accepts a positive extent, or 0 (assumed size,
				// from "*") in the last position only; reject anything else
				// here so declaration mistakes never reach a panic.
				d := dims[len(dims)-1]
				if d <= 0 && !(d == 0 && done) {
					if d == 0 {
						return p.errf(t, "array %s: assumed size '*' is only valid as the last dimension", name)
					}
					return p.errf(t, "array %s: dimension %d must be positive", name, len(dims))
				}
			}
			if old, ok := p.arrays[name]; ok {
				// Re-declaration (REAL*8 A then DIMENSION A(...)): keep the
				// element size already recorded.
				elem = old.ElemSize
			}
			p.declareArray(name, ir.NewArray(name, elem, dims...))
			delete(p.scalars, name)
		} else {
			if _, isArr := p.arrays[name]; !isArr {
				p.scalars[name] = true
			}
		}
		if p.peek().kind == tokNewline || p.peek().kind == tokEOF {
			p.skipNewlines()
			return nil
		}
		if err := p.expectPunct(","); err != nil {
			return err
		}
	}
}

// parseDim parses one declared dimension: an integer, a named constant, a
// simple affine constant expression, or "*" (assumed size).
func (p *parser) parseDim() (int64, error) {
	if p.acceptPunct("*") {
		return 0, nil
	}
	e, err := p.parseAffine()
	if err != nil {
		return 0, err
	}
	if !e.IsConst() {
		return 0, p.errf(p.peek(), "array dimension must be a compile-time constant")
	}
	return e.Const, nil
}

func (p *parser) parseConstValue() (int64, error) {
	e, err := p.parseAffine()
	if err != nil {
		return 0, err
	}
	if !e.IsConst() {
		return 0, p.errf(p.peek(), "expected a constant")
	}
	return e.Const, nil
}

// parseStmts parses statements until one of the stop keywords is the next
// token (not consumed). pendingLabels tracks "DO <label>" terminators.
func (p *parser) parseStmts(stop map[string]bool, doLabels []string) ([]ir.Node, error) {
	var out []ir.Node
	labelPos := map[string]int{}
	for {
		p.skipNewlines()
		t := p.peek()
		if t.kind == tokEOF {
			return out, nil
		}
		// Statement label (e.g. "100 CONTINUE" or "200 S = ...").
		if t.kind == tokNumber && containsLabel(doLabels, t.text) {
			return out, nil // a DO terminator: the owning loop consumes it
		}
		if t.kind == tokNumber {
			// A labelled statement: remember the position as a potential
			// backward-GOTO target (IF-GOTO loop head).
			labelPos[t.text] = len(out)
		}
		if t.kind == tokIdent && stop[t.text] {
			return out, nil
		}
		node, err := p.parseStmt(doLabels)
		if err != nil {
			return nil, err
		}
		if node != nil {
			out = append(out, node)
		}
		if lbl := p.pendingGoto; lbl != "" {
			p.pendingGoto = ""
			pos, known := labelPos[lbl]
			if !known {
				return nil, p.errModel(t, "GOTO %s is not a backward loop in this scope (forward GOTOs are outside the program model)", lbl)
			}
			trips, fixed := p.gotoTrips[lbl]
			if !fixed {
				return nil, p.errModel(t, "IF-GOTO loop to label %s is data-dependent; fix its trip count via Options.GotoTrips (the paper fixes it from the reference input)", lbl)
			}
			p.gotoSeq++
			body := append([]ir.Node(nil), out[pos:]...)
			loop := &ir.Loop{Var: fmt.Sprintf("__goto%d", p.gotoSeq),
				Lo: ir.Con(1), Hi: ir.Con(trips), Step: 1, Label: lbl, Body: body}
			out = append(out[:pos], loop)
			delete(labelPos, lbl)
		}
	}
}

func containsLabel(labels []string, l string) bool {
	for _, x := range labels {
		if x == l {
			return true
		}
	}
	return false
}

func (p *parser) parseStmt(doLabels []string) (ir.Node, error) {
	t := p.peek()
	if p.nest >= maxNest {
		return nil, p.errf(t, "statement nesting deeper than %d levels", maxNest)
	}
	p.nest++
	defer func() { p.nest-- }()
	switch {
	case t.kind == tokIdent && t.text == "DO":
		return p.parseDo(doLabels)
	case t.kind == tokIdent && t.text == "IF":
		return p.parseIf(doLabels)
	case t.kind == tokIdent && t.text == "CALL":
		return p.parseCall()
	case t.kind == tokIdent && t.text == "GOTO":
		p.pos++
		lt := p.next()
		if lt.kind != tokNumber {
			return nil, p.errf(lt, "expected statement label after GOTO")
		}
		p.pendingGoto = lt.text
		p.expectNewline()
		return nil, nil
	case t.kind == tokIdent && (t.text == "CONTINUE" || t.text == "RETURN" || t.text == "STOP" ||
		t.text == "WRITE" || t.text == "PRINT" || t.text == "READ" || t.text == "FORMAT"):
		// I/O and control statements outside the model: skip the line (the
		// paper likewise excludes system-call accesses).
		for p.peek().kind != tokNewline && p.peek().kind != tokEOF {
			p.pos++
		}
		p.skipNewlines()
		return nil, nil
	case t.kind == tokIdent:
		return p.parseAssign()
	case t.kind == tokNumber:
		// Labelled statement that is not a DO terminator for the current
		// nesting: treat the label as inert.
		p.pos++
		return p.parseStmt(doLabels)
	}
	return nil, p.errf(t, "unexpected %s at statement start", t)
}

// parseDo parses "DO [label] var = lo, hi [, step]" and its body.
// Nested loops may share one labelled terminator (FORTRAN's "DO 400 ...
// DO 400 ... 400 CONTINUE"); only the outermost loop of a label consumes
// the terminator line.
func (p *parser) parseDo(doLabels []string) (ir.Node, error) {
	p.next() // DO
	label := ""
	if p.peek().kind == tokNumber {
		label = p.next().text
	}
	v := p.next()
	if v.kind != tokIdent {
		return nil, p.errf(v, "expected loop variable")
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	lo, err := p.parseAffine()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(","); err != nil {
		return nil, err
	}
	hi, err := p.parseAffine()
	if err != nil {
		return nil, err
	}
	step := int64(1)
	if p.acceptPunct(",") {
		se, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		if !se.IsConst() {
			return nil, p.errf(p.peek(), "loop step must be a compile-time constant")
		}
		step = se.Const
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}

	loop := &ir.Loop{Var: v.text, Lo: lo, Hi: hi, Step: step, Label: label}
	// The loop variable shadows any scalar of the same name.
	wasScalar := p.scalars[v.text]
	delete(p.scalars, v.text)
	defer func() {
		if wasScalar {
			p.scalars[v.text] = true
		}
	}()

	if label != "" {
		shared := containsLabel(doLabels, label)
		body, err := p.parseStmts(nil, append(append([]string(nil), doLabels...), label))
		if err != nil {
			return nil, err
		}
		// Only the outermost loop of a shared label consumes the
		// terminator line.
		if !shared && p.peek().kind == tokNumber && p.peek().text == label {
			p.next()
			if !p.acceptIdent("CONTINUE") {
				// A labelled real statement terminates the loop after
				// executing: parse it as the last body statement.
				last, err := p.parseStmt(doLabels)
				if err != nil {
					return nil, err
				}
				if last != nil {
					body = append(body, last)
				}
			} else {
				p.expectNewline()
			}
		}
		loop.Body = body
		return loop, nil
	}
	body, err := p.parseStmts(map[string]bool{"ENDDO": true, "END": true}, doLabels)
	if err != nil {
		return nil, err
	}
	if !p.acceptIdent("ENDDO") {
		return nil, p.errf(p.peek(), "expected ENDDO")
	}
	p.expectNewline()
	loop.Body = body
	return loop, nil
}

// parseIf parses block IF ... THEN / ENDIF and logical IF (single
// statement) forms. ELSE is outside the analysable model and rejected.
func (p *parser) parseIf(doLabels []string) (ir.Node, error) {
	p.next() // IF
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	conds, err := p.parseConds()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	node := &ir.If{Conds: conds}
	if p.acceptIdent("THEN") {
		if err := p.expectNewline(); err != nil {
			return nil, err
		}
		body, err := p.parseStmts(map[string]bool{"ENDIF": true, "ELSE": true, "END": true}, doLabels)
		if err != nil {
			return nil, err
		}
		if p.peek().kind == tokIdent && p.peek().text == "ELSE" {
			return nil, p.errModel(p.peek(), "ELSE branches are not in the analysable program model")
		}
		if !p.acceptIdent("ENDIF") {
			return nil, p.errf(p.peek(), "expected ENDIF")
		}
		p.expectNewline()
		node.Body = body
		return node, nil
	}
	// Logical IF: one statement on the same line.
	st, err := p.parseStmt(doLabels)
	if err != nil {
		return nil, err
	}
	if st == nil && p.pendingGoto != "" {
		// "IF (cond) GOTO label": the loop-back branch of an IF-GOTO
		// loop. The condition is the (data-dependent) continuation test;
		// the conversion replaces it with a fixed trip count, so the IF
		// node itself disappears.
		return nil, nil
	}
	if st != nil {
		node.Body = []ir.Node{st}
	}
	return node, nil
}

// parseConds parses cond {.AND. cond}.
func (p *parser) parseConds() ([]ir.Cond, error) {
	var out []ir.Cond
	for {
		lhs, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		op := p.next()
		if op.kind != tokRelop {
			return nil, p.errf(op, "expected comparison operator")
		}
		var cop ir.CmpOp
		switch op.text {
		case ".EQ.":
			cop = ir.EQ
		case ".LE.":
			cop = ir.LE
		case ".LT.":
			cop = ir.LT
		case ".GE.":
			cop = ir.GE
		case ".GT.":
			cop = ir.GT
		default:
			return nil, p.errModel(op, "operator %s is outside the affine condition model", op.text)
		}
		rhs, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		out = append(out, ir.Cond{LHS: lhs, Op: cop, RHS: rhs})
		if p.peek().kind == tokRelop && p.peek().text == ".AND." {
			p.pos++
			continue
		}
		return out, nil
	}
}

// parseCall parses CALL name[(args)].
func (p *parser) parseCall() (ir.Node, error) {
	p.next() // CALL
	name := p.next()
	if name.kind != tokIdent {
		return nil, p.errf(name, "expected subroutine name")
	}
	call := &ir.Call{Callee: name.text}
	if p.acceptPunct("(") {
		for {
			arg, err := p.parseArg()
			if err != nil {
				return nil, err
			}
			call.Args = append(call.Args, arg)
			if p.acceptPunct(")") {
				break
			}
			if err := p.expectPunct(","); err != nil {
				return nil, err
			}
		}
	}
	p.expectNewline()
	return call, nil
}

func (p *parser) parseArg() (ir.Arg, error) {
	t := p.next()
	if t.kind != tokIdent {
		return ir.Arg{}, p.errf(t, "call arguments must be variables or array elements")
	}
	if a, ok := p.arrays[t.text]; ok {
		if p.acceptPunct("(") {
			subs, err := p.parseSubscripts()
			if err != nil {
				return ir.Arg{}, err
			}
			if len(subs) != a.Rank() {
				return ir.Arg{}, p.errf(t, "array %s: %d subscripts for rank %d", t.text, len(subs), a.Rank())
			}
			return ir.Arg{Array: a, Subs: subs}, nil
		}
		return ir.Arg{Array: a}, nil
	}
	// Scalar argument: materialise a 1-element array on first use so that
	// it has storage.
	a := ir.NewArray(t.text, 8, 1)
	p.declareArray(t.text, a)
	return ir.Arg{Array: a}, nil
}

// parseAssign parses "ref = expression". Scalar targets keep only their
// RHS array reads (the scalar lives in a register).
func (p *parser) parseAssign() (ir.Node, error) {
	t := p.next()
	name := t.text
	var lhs *ir.Ref
	if a, ok := p.arrays[name]; ok {
		if err := p.expectPunct("("); err != nil {
			return nil, p.errf(t, "array %s assigned without subscripts", name)
		}
		subs, err := p.parseSubscripts()
		if err != nil {
			return nil, err
		}
		if len(subs) != a.Rank() {
			return nil, p.errf(t, "array %s: %d subscripts for rank %d", name, len(subs), a.Rank())
		}
		lhs = ir.NewRef(a, subs...)
	} else {
		p.scalars[name] = true // scalar target
	}
	if err := p.expectPunct("="); err != nil {
		return nil, err
	}
	reads, err := p.parseRHS()
	if err != nil {
		return nil, err
	}
	if err := p.expectNewline(); err != nil {
		return nil, err
	}
	return ir.NewAssign(fmt.Sprintf("L%d", t.line), lhs, reads...), nil
}

// parseRHS scans an arbitrary arithmetic expression, collecting array
// references in textual order and ignoring scalars and literals.
func (p *parser) parseRHS() ([]*ir.Ref, error) {
	var reads []*ir.Ref
	depth := 0
	for {
		t := p.peek()
		switch {
		case t.kind == tokNewline || t.kind == tokEOF:
			if depth != 0 {
				return nil, p.errf(t, "unbalanced parentheses in expression")
			}
			return reads, nil
		case t.kind == tokPunct && t.text == "(":
			depth++
			p.pos++
		case t.kind == tokPunct && t.text == ")":
			depth--
			if depth < 0 {
				return nil, p.errf(t, "unbalanced ')' in expression")
			}
			p.pos++
		case t.kind == tokIdent:
			p.pos++
			if a, ok := p.arrays[t.text]; ok {
				if err := p.expectPunct("("); err != nil {
					return nil, p.errf(t, "array %s used without subscripts", t.text)
				}
				subs, err := p.parseSubscripts()
				if err != nil {
					return nil, err
				}
				if len(subs) != a.Rank() {
					return nil, p.errf(t, "array %s: %d subscripts for rank %d", t.text, len(subs), a.Rank())
				}
				reads = append(reads, ir.NewRef(a, subs...))
			}
			// Scalars, intrinsics (ABS, SQRT...) contribute no references;
			// their argument lists are scanned by the same loop.
		default:
			p.pos++
		}
	}
}

// parseSubscripts parses "e1, e2, ...)" (the opening paren is consumed).
func (p *parser) parseSubscripts() ([]ir.Expr, error) {
	var subs []ir.Expr
	for {
		e, err := p.parseAffine()
		if err != nil {
			return nil, err
		}
		subs = append(subs, e)
		if p.acceptPunct(")") {
			return subs, nil
		}
		if err := p.expectPunct(","); err != nil {
			return nil, err
		}
	}
}

// parseAffine parses an affine expression over loop variables and named
// constants: term { (+|-) term }, term := factor { * factor }, where at
// most one factor per product may be non-constant.
func (p *parser) parseAffine() (ir.Expr, error) {
	e, err := p.parseAffineTerm()
	if err != nil {
		return ir.Expr{}, err
	}
	for {
		if p.acceptPunct("+") {
			t, err := p.parseAffineTerm()
			if err != nil {
				return ir.Expr{}, err
			}
			e = e.Plus(t)
		} else if p.acceptPunct("-") {
			t, err := p.parseAffineTerm()
			if err != nil {
				return ir.Expr{}, err
			}
			e = e.Minus(t)
		} else {
			return e, nil
		}
		// A legitimate affine expression mentions at most the enclosing
		// loop variables; an unbounded count is pathological input and
		// each addition copies the term map, so cap it.
		if len(e.Terms) > maxAffineTerms {
			return ir.Expr{}, p.errf(p.peek(), "more than %d distinct variables in one affine expression", maxAffineTerms)
		}
	}
}

func (p *parser) parseAffineTerm() (ir.Expr, error) {
	e, err := p.parseAffineFactor()
	if err != nil {
		return ir.Expr{}, err
	}
	for p.acceptPunct("*") {
		f, err := p.parseAffineFactor()
		if err != nil {
			return ir.Expr{}, err
		}
		switch {
		case f.IsConst():
			e = e.Scale(f.Const)
		case e.IsConst():
			e = f.Scale(e.Const)
		default:
			return ir.Expr{}, p.errModel(p.peek(), "non-affine product of two variables")
		}
	}
	return e, nil
}

func (p *parser) parseAffineFactor() (ir.Expr, error) {
	if p.exprDepth >= maxExprDepth {
		return ir.Expr{}, p.errf(p.peek(), "expression nesting deeper than %d levels", maxExprDepth)
	}
	p.exprDepth++
	defer func() { p.exprDepth-- }()
	t := p.next()
	switch {
	case t.kind == tokNumber:
		v, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return ir.Expr{}, p.errf(t, "subscript constants must be integers: %q", t.text)
		}
		return ir.Con(v), nil
	case t.kind == tokPunct && t.text == "-":
		f, err := p.parseAffineFactor()
		if err != nil {
			return ir.Expr{}, err
		}
		return f.Scale(-1), nil
	case t.kind == tokPunct && t.text == "+":
		return p.parseAffineFactor()
	case t.kind == tokPunct && t.text == "(":
		e, err := p.parseAffine()
		if err != nil {
			return ir.Expr{}, err
		}
		if err := p.expectPunct(")"); err != nil {
			return ir.Expr{}, err
		}
		return e, nil
	case t.kind == tokIdent:
		if v, ok := p.consts[t.text]; ok {
			return ir.Con(v), nil
		}
		return ir.Var(t.text), nil
	}
	return ir.Expr{}, p.errf(t, "unexpected %s in affine expression", t)
}
