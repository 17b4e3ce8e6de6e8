package squid

import (
	"fmt"
	"slices"
	"strings"

	"squid/internal/keyspace"
)

// PublishCombinations indexes a data element described by more keywords
// than the space has dimensions, the situation the paper's storage
// use-case implies (a document has many descriptive words, the index is
// 2-D or 3-D): the keywords are sorted and every d-sized combination is
// published as its own tuple. A query whose exact terms are sorted the
// same way then meets at least one tuple of every matching element.
//
// Because one element now lives at several curve points, a broad query can
// return it multiple times; deduplicate with Dedup. Returns the number of
// tuples published.
func (e *Engine) PublishCombinations(keywords []string, data string) (int, error) {
	d := e.space.Dims()
	words := normalizeKeywords(keywords)
	if len(words) == 0 {
		return 0, fmt.Errorf("squid: no usable keywords for %q", data)
	}
	if len(words) <= d {
		if err := e.Publish(Element{Values: words, Data: data}); err != nil {
			return 0, err
		}
		return 1, nil
	}
	published := 0
	var rec func(start int, chosen []string) error
	rec = func(start int, chosen []string) error {
		if len(chosen) == d {
			if err := e.Publish(Element{Values: append([]string(nil), chosen...), Data: data}); err != nil {
				return err
			}
			published++
			return nil
		}
		for i := start; i <= len(words)-(d-len(chosen)); i++ {
			if err := rec(i+1, append(chosen, words[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, make([]string, 0, d)); err != nil {
		return published, err
	}
	return published, nil
}

// normalizeKeywords lowercases, trims, sorts and deduplicates a keyword
// list — the canonical form shared by the publish and query sides.
func normalizeKeywords(words []string) []string {
	clean := make([]string, 0, len(words))
	for _, w := range words {
		w = strings.TrimSpace(strings.ToLower(w))
		if w != "" {
			clean = append(clean, w)
		}
	}
	slices.Sort(clean)
	return slices.Compact(clean)
}

// KeywordQueries turns a conjunctive keyword query against data published
// with PublishCombinations into the flexible queries that answer it: the
// words are normalized as on the publish side and, since a word may sit on
// any axis of a sorted combination tuple, every in-order placement of them
// on the space's d axes (remaining axes wildcarded) is one query. Run each
// with Query or QueryStream and merge the answers with Dedup. It needs
// 1..d distinct words.
func KeywordQueries(space *keyspace.Space, words []string) ([]keyspace.Query, error) {
	clean := normalizeKeywords(words)
	d := space.Dims()
	if len(clean) == 0 || len(clean) > d {
		return nil, fmt.Errorf("squid: keyword query needs 1..%d distinct words, got %d", d, len(clean))
	}
	var queries []keyspace.Query
	var place func(wi, dim int, cur keyspace.Query)
	place = func(wi, dim int, cur keyspace.Query) {
		if wi == len(clean) {
			q := append(keyspace.Query(nil), cur...)
			for len(q) < d {
				q = append(q, keyspace.Wildcard())
			}
			queries = append(queries, q)
			return
		}
		if d-dim < len(clean)-wi {
			return
		}
		place(wi+1, dim+1, append(cur, keyspace.Exact(clean[wi]))) // word here
		place(wi, dim+1, append(cur, keyspace.Wildcard()))         // skip axis
	}
	place(0, 0, make(keyspace.Query, 0, d))
	return queries, nil
}

// Dedup collapses matches that refer to the same element (same payload),
// needed when elements were published with PublishCombinations. Order of
// first occurrence is preserved.
func Dedup(matches []Element) []Element {
	seen := make(map[string]bool, len(matches))
	out := matches[:0:0]
	for _, m := range matches {
		if seen[m.Data] {
			continue
		}
		seen[m.Data] = true
		out = append(out, m)
	}
	return out
}
