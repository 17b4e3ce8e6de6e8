package keyspace

import (
	"fmt"
	"strings"
)

// TermKind enumerates the constraint types a query can place on one
// dimension, matching the paper's query language.
type TermKind int

const (
	// KindWildcard matches any value ("*").
	KindWildcard TermKind = iota
	// KindExact matches one value exactly ("computer").
	KindExact
	// KindPrefix matches values sharing a prefix ("comp*").
	KindPrefix
	// KindRange matches values in a closed interval ("256-512"); either end
	// may be open ("1-*", "*-100"), constraining only one side.
	KindRange
)

// Term is the constraint a query places on a single dimension.
type Term struct {
	Kind TermKind
	// Value holds the exact word or the prefix (without the trailing '*').
	Value string
	// Lo/Hi hold range bounds; empty means open on that side.
	Lo, Hi string
}

// Wildcard returns the unconstrained term.
func Wildcard() Term { return Term{Kind: KindWildcard} }

// Exact returns a term matching v exactly.
func Exact(v string) Term { return Term{Kind: KindExact, Value: v} }

// Prefix returns a term matching any value starting with p.
func Prefix(p string) Term { return Term{Kind: KindPrefix, Value: p} }

// Range returns a term matching values in [lo, hi]; pass "" to leave an end
// open.
func Range(lo, hi string) Term { return Term{Kind: KindRange, Lo: lo, Hi: hi} }

// String renders the term in query syntax.
func (t Term) String() string {
	switch t.Kind {
	case KindWildcard:
		return "*"
	case KindExact:
		return t.Value
	case KindPrefix:
		return t.Value + "*"
	case KindRange:
		lo, hi := t.Lo, t.Hi
		if lo == "" {
			lo = "*"
		}
		if hi == "" {
			hi = "*"
		}
		return lo + "-" + hi
	}
	return "?"
}

// Query is one term per dimension. Queries shorter than the space's
// dimensionality are padded with wildcards by Space.Region, mirroring the
// paper's "(computer, *)" examples.
type Query []Term

// String renders the query as "(t1, t2, ...)".
func (q Query) String() string {
	parts := make([]string, len(q))
	for i, t := range q {
		parts[i] = t.String()
	}
	return "(" + strings.Join(parts, ", ") + ")"
}

// IsExact reports whether every term is exact, i.e. the query identifies a
// single point of the keyword space and resolves with one DHT lookup.
func (q Query) IsExact() bool {
	if len(q) == 0 {
		return false
	}
	for _, t := range q {
		if t.Kind != KindExact {
			return false
		}
	}
	return true
}

// Parse parses the textual query syntax used throughout the paper:
//
//	(computer, network)    exact keywords
//	(comp*, net*)          partial keywords
//	(computer, *)          wildcard
//	(256-512, *, 10-*)     ranges, possibly open-ended
//
// The surrounding parentheses are optional but come as a pair. Terms are
// comma separated; "-" inside a term denotes a range (use Exact directly to
// construct terms containing literal dashes).
func Parse(s string) (Query, error) {
	s = strings.TrimSpace(s)
	open, closed := strings.HasPrefix(s, "("), strings.HasSuffix(s, ")")
	if open != closed {
		return nil, fmt.Errorf("keyspace: unbalanced parenthesis in %q", s)
	}
	if open {
		s = s[1 : len(s)-1]
	}
	if strings.TrimSpace(s) == "" {
		return nil, fmt.Errorf("keyspace: empty query")
	}
	parts := strings.Split(s, ",")
	q := make(Query, 0, len(parts))
	for _, part := range parts {
		t, err := parseTerm(strings.TrimSpace(part))
		if err != nil {
			return nil, err
		}
		q = append(q, t)
	}
	return q, nil
}

// MustParse is Parse that panics on error; for tests and examples.
func MustParse(s string) Query {
	q, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return q
}

func parseTerm(s string) (Term, error) {
	switch {
	case s == "":
		return Term{}, fmt.Errorf("keyspace: empty term")
	case s == "*":
		return Wildcard(), nil
	case strings.Contains(s, "-"):
		lo, hi, _ := strings.Cut(s, "-")
		lo, hi = strings.TrimSpace(lo), strings.TrimSpace(hi)
		if lo == "*" {
			lo = ""
		}
		if hi == "*" {
			hi = ""
		}
		if lo == "" && hi == "" {
			return Wildcard(), nil
		}
		return Range(lo, hi), nil
	case strings.HasSuffix(s, "*"):
		p := strings.TrimSuffix(s, "*")
		if strings.Contains(p, "*") {
			return Term{}, fmt.Errorf("keyspace: %q: '*' is only valid alone or as a suffix", s)
		}
		return Prefix(p), nil
	default:
		return Exact(s), nil
	}
}
