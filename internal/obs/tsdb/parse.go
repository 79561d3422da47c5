package tsdb

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

// The query language is the useful corner of PromQL:
//
//	expr     := aggop '(' inner ')' | inner
//	aggop    := sum | avg | max | min          (cross-session roll-up)
//	inner    := rangefn '(' rangesel ')'
//	          | quantile_over_time '(' num ',' rangesel ')'
//	          | sel
//	rangefn  := rate | increase | avg_over_time | max_over_time | min_over_time
//	rangesel := sel '[' duration ']'
//	sel      := metric ( '{' session '=' '"' str '"' '}' )?
//
// e.g. `health_min_snr_db`, `rate(controlplane_acks_total[1m])`,
// `sum(rate(radio_csi_measurements_total{session="room-3"}[30s]))`.

// selParams is a parsed vector selector.
type selParams struct {
	name            string
	session         string
	sessionFiltered bool
	windowMs        int64 // 0 for instant selectors
}

// expr is a parsed query: at most one aggregation over at most one
// range function over exactly one selector.
type expr struct {
	agg   string // "", sum, avg, max, min
	fn    string // "", rate, increase, *_over_time
	param float64
	sel   selParams
}

func (e *expr) selector() selParams { return e.sel }

var aggOps = map[string]bool{"sum": true, "avg": true, "max": true, "min": true}

var rangeFns = map[string]bool{
	"rate": true, "increase": true,
	"avg_over_time": true, "max_over_time": true, "min_over_time": true,
	"quantile_over_time": true,
}

type parser struct {
	in  string
	pos int
}

func parseExpr(s string) (*expr, error) {
	p := &parser{in: s}
	e, err := p.parse()
	if err != nil {
		return nil, fmt.Errorf("tsdb: parse %q: %w", s, err)
	}
	return e, nil
}

func (p *parser) parse() (*expr, error) {
	e := &expr{}
	p.skipSpace()
	ident := p.peekIdent()
	if aggOps[ident] && p.peekAfterIdent(ident) == '(' {
		e.agg = ident
		p.takeIdent(ident)
		p.expect('(')
		if err := p.parseInner(e); err != nil {
			return nil, err
		}
		if err := p.expect(')'); err != nil {
			return nil, err
		}
	} else if err := p.parseInner(e); err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.in) {
		return nil, fmt.Errorf("trailing input at %d: %q", p.pos, p.in[p.pos:])
	}
	return e, nil
}

func (p *parser) parseInner(e *expr) error {
	p.skipSpace()
	ident := p.peekIdent()
	if rangeFns[ident] && p.peekAfterIdent(ident) == '(' {
		e.fn = ident
		p.takeIdent(ident)
		p.expect('(')
		if ident == "quantile_over_time" {
			q, err := p.number()
			if err != nil {
				return err
			}
			e.param = q
			if err := p.expect(','); err != nil {
				return err
			}
		}
		if err := p.parseSelector(&e.sel); err != nil {
			return err
		}
		if e.sel.windowMs == 0 {
			return fmt.Errorf("%s() needs a range selector like name[1m]", ident)
		}
		return p.expect(')')
	}
	if err := p.parseSelector(&e.sel); err != nil {
		return err
	}
	if e.sel.windowMs != 0 {
		return fmt.Errorf("range selector %s[...] needs a function (rate, avg_over_time, ...)", e.sel.name)
	}
	return nil
}

func (p *parser) parseSelector(sel *selParams) error {
	p.skipSpace()
	name := p.peekIdent()
	if name == "" {
		return fmt.Errorf("expected metric name at %d", p.pos)
	}
	p.takeIdent(name)
	sel.name = name
	p.skipSpace()
	if p.peek() == '{' {
		p.pos++
		p.skipSpace()
		label := p.peekIdent()
		if label != "session" {
			return fmt.Errorf("only the session label is matchable, got %q", label)
		}
		p.takeIdent(label)
		p.skipSpace()
		if err := p.expect('='); err != nil {
			return err
		}
		v, err := p.quoted()
		if err != nil {
			return err
		}
		sel.session = v
		sel.sessionFiltered = true
		p.skipSpace()
		if err := p.expect('}'); err != nil {
			return err
		}
	}
	p.skipSpace()
	if p.peek() == '[' {
		p.pos++
		start := p.pos
		for p.pos < len(p.in) && p.in[p.pos] != ']' {
			p.pos++
		}
		d, err := time.ParseDuration(strings.TrimSpace(p.in[start:p.pos]))
		if err != nil || d <= 0 {
			return fmt.Errorf("bad range duration %q", p.in[start:p.pos])
		}
		sel.windowMs = d.Milliseconds()
		return p.expect(']')
	}
	return nil
}

func (p *parser) skipSpace() {
	for p.pos < len(p.in) && (p.in[p.pos] == ' ' || p.in[p.pos] == '\t') {
		p.pos++
	}
}

func (p *parser) peek() byte {
	if p.pos >= len(p.in) {
		return 0
	}
	return p.in[p.pos]
}

func isIdentChar(c byte, first bool) bool {
	switch {
	case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		return true
	case first:
		return false
	// Metric names from the registry can carry dots, slashes, and
	// dashes (span names especially); selectors must match them.
	case c >= '0' && c <= '9', c == '.', c == '/', c == '-':
		return true
	}
	return false
}

// peekIdent reads an identifier at the cursor without consuming it.
func (p *parser) peekIdent() string {
	i := p.pos
	if i >= len(p.in) || !isIdentChar(p.in[i], true) {
		return ""
	}
	for i < len(p.in) && isIdentChar(p.in[i], false) {
		i++
	}
	return p.in[p.pos:i]
}

// peekAfterIdent returns the first non-space byte after the identifier.
func (p *parser) peekAfterIdent(ident string) byte {
	i := p.pos + len(ident)
	for i < len(p.in) && (p.in[i] == ' ' || p.in[i] == '\t') {
		i++
	}
	if i >= len(p.in) {
		return 0
	}
	return p.in[i]
}

func (p *parser) takeIdent(ident string) { p.pos += len(ident) }

func (p *parser) expect(c byte) error {
	p.skipSpace()
	if p.peek() != c {
		return fmt.Errorf("expected %q at %d", string(c), p.pos)
	}
	p.pos++
	return nil
}

func (p *parser) number() (float64, error) {
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.in) && (p.in[p.pos] == '.' || p.in[p.pos] == '-' ||
		(p.in[p.pos] >= '0' && p.in[p.pos] <= '9')) {
		p.pos++
	}
	v, err := strconv.ParseFloat(p.in[start:p.pos], 64)
	if err != nil {
		return 0, fmt.Errorf("bad number at %d", start)
	}
	return v, nil
}

// String renders the canonical spelling of a parsed query, the inverse
// of parseExpr.
func (e *expr) String() string {
	var sb strings.Builder
	if e.agg != "" {
		sb.WriteString(e.agg)
		sb.WriteByte('(')
	}
	if e.fn != "" {
		sb.WriteString(e.fn)
		sb.WriteByte('(')
		if e.fn == "quantile_over_time" {
			sb.WriteString(strconv.FormatFloat(e.param, 'g', -1, 64))
			sb.WriteString(", ")
		}
	}
	sb.WriteString(e.sel.name)
	if e.sel.sessionFiltered {
		fmt.Fprintf(&sb, "{session=%q}", e.sel.session)
	}
	if e.sel.windowMs != 0 {
		fmt.Fprintf(&sb, "[%s]", time.Duration(e.sel.windowMs)*time.Millisecond)
	}
	if e.fn != "" {
		sb.WriteByte(')')
	}
	if e.agg != "" {
		sb.WriteByte(')')
	}
	return sb.String()
}

// WithSession returns exprStr rewritten so its selector filters on the
// given session, overriding any filter already present — how `pressctl
// query -session` composes with a bare expression. The expression must
// parse; the rewritten canonical form is returned.
func WithSession(exprStr, session string) (string, error) {
	e, err := parseExpr(exprStr)
	if err != nil {
		return "", err
	}
	e.sel.session = session
	e.sel.sessionFiltered = true
	return e.String(), nil
}

func (p *parser) quoted() (string, error) {
	p.skipSpace()
	if p.peek() != '"' {
		return "", fmt.Errorf("expected quoted string at %d", p.pos)
	}
	p.pos++
	var sb strings.Builder
	for p.pos < len(p.in) {
		c := p.in[p.pos]
		if c == '\\' && p.pos+1 < len(p.in) {
			sb.WriteByte(p.in[p.pos+1])
			p.pos += 2
			continue
		}
		if c == '"' {
			p.pos++
			return sb.String(), nil
		}
		sb.WriteByte(c)
		p.pos++
	}
	return "", fmt.Errorf("unterminated string")
}
