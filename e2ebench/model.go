package main

import (
	"fmt"
	"math"
	"sort"

	"lakeguard/internal/types"
)

// Rules are what the answer model assumes of the engine, written out
// independently of it: which rows a user sees, whether ssn shows, and what
// the score UDF computes. Tests swap in a wrong rule to show the checks
// catch it.
type Rules struct {
	Visible func(user string, r *Row) bool
	ShowSSN func(user string) bool
	Score   func(v float64) float64
}

// groups is the account-group membership the deployment is seeded with.
var groups = map[string][]string{"auditors": {auditor}, "hr": {hrUser}}

func member(user, group string) bool {
	for _, m := range groups[group] {
		if m == user {
			return true
		}
	}
	return false
}

// tableRules hold for the governed events table, and for its twin, whose
// queries carry the same policy inline: a row is visible iff its owner is
// the user or the user is in auditors, and ssn shows iff the user is in hr.
var tableRules = Rules{
	Visible: func(user string, r *Row) bool { return r.Owner == user || member(user, "auditors") },
	ShowSSN: func(user string) bool { return member(user, "hr") },
	Score:   score,
}

// openRules hold for the ungoverned ledger: every row, unmasked.
var openRules = Rules{
	Visible: func(string, *Row) bool { return true },
	ShowSSN: func(string) bool { return true },
	Score:   score,
}

// tableModel is the benchmark's own copy of one table, indexed by id (ids
// are dense: seeded rows take 0..n-1 and inserts take the next ids).
type tableModel struct {
	rows []Row
	live []bool
	n    int64
}

func newTableModel(rows []Row) *tableModel {
	m := &tableModel{rows: append([]Row(nil), rows...), live: make([]bool, len(rows)), n: int64(len(rows))}
	for i := range m.live {
		m.live[i] = true
	}
	return m
}

// apply performs one writer statement and returns the rows it affected.
func (m *tableModel) apply(w Write) int64 {
	switch w.Kind {
	case "insert":
		for _, r := range w.Rows {
			if r.ID != int64(len(m.rows)) {
				panic(fmt.Sprintf("insert id %d out of sequence", r.ID))
			}
			m.rows = append(m.rows, r)
			m.live = append(m.live, true)
		}
		m.n += int64(len(w.Rows))
		return int64(len(w.Rows))
	case "delete":
		if m.live[w.ID] {
			m.live[w.ID] = false
			m.n--
			return 1
		}
		return 0
	case "update":
		var n int64
		for id := w.ID; id < w.ID+updateRange; id++ {
			if m.live[id] {
				m.rows[id].V = m.rows[id].V + 1
				n++
			}
		}
		return n
	}
	return 0
}

// Answer is an order-independent summary of a result: its row count, the
// wrapping sum of its row hashes, and for agg its groups by cat.
type Answer struct {
	N      int64
	H      uint64
	Groups map[string]aggCell
}

type aggCell struct {
	N int64
	S float64
}

// rowHash is FNV-1a over each value's bits; the final mix makes the wrapping
// sum of row hashes a sound multiset digest.
type rowHash uint64

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

func (h *rowHash) u64(x uint64) {
	for i := 0; i < 8; i++ {
		*h ^= rowHash(x & 0xff)
		*h *= fnvPrime
		x >>= 8
	}
}

func (h *rowHash) str(s string) {
	for i := 0; i < len(s); i++ {
		*h ^= rowHash(s[i])
		*h *= fnvPrime
	}
	h.u64(uint64(len(s)))
}

func (h *rowHash) f64(f float64) { h.u64(math.Float64bits(f)) }

func (h rowHash) final() uint64 {
	x := uint64(h)
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	return x ^ x>>33
}

// digest summarises a result batch returned by the engine.
func digest(class string, b *types.Batch) (Answer, error) {
	var a Answer
	if b == nil {
		return a, nil
	}
	n := b.NumRows()
	if class == "agg" {
		if b.NumCols() != 3 {
			return a, fmt.Errorf("agg: %d columns, want 3", b.NumCols())
		}
		a.Groups = map[string]aggCell{}
		for i := 0; i < n; i++ {
			a.Groups[b.Cols[0].StringAt(i)] = aggCell{N: b.Cols[1].Int64(i), S: b.Cols[2].Value(i).AsFloat64()}
		}
		a.N = int64(n)
		return a, nil
	}
	for i := 0; i < n; i++ {
		h := rowHash(fnvOffset)
		for _, c := range b.Cols {
			if c.IsNull(i) {
				h.u64(0x6e756c6c)
				continue
			}
			switch c.Kind() {
			case types.KindFloat64:
				h.f64(c.Float64(i))
			case types.KindString, types.KindBinary:
				h.str(c.StringAt(i))
			default:
				h.u64(uint64(c.Int64(i)))
			}
		}
		a.H += h.final()
	}
	a.N = int64(n)
	return a, nil
}

// expected computes a read's answer over the model's live rows under pol.
func expected(m *tableModel, pol Rules, dims []Dim, r Read) Answer {
	a := Answer{}
	showSSN := pol.ShowSSN(r.Tenant)
	ssn := func(row *Row) string {
		if showSSN {
			return row.SSN
		}
		return "***"
	}
	add := func(h rowHash) {
		a.N++
		a.H += h.final()
	}
	p := r.Param
	lo, hi := int64(0), int64(len(m.rows))
	switch r.Class {
	case "point":
		lo, hi = p, p+1
	case "udf":
		lo, hi = p, p+udfRange
	case "agg":
		a.Groups = map[string]aggCell{}
	}
	if hi > int64(len(m.rows)) {
		hi = int64(len(m.rows))
	}
	for id := lo; id < hi; id++ {
		row := &m.rows[id]
		if !m.live[id] || !pol.Visible(r.Tenant, row) {
			continue
		}
		h := rowHash(fnvOffset)
		switch r.Class {
		case "point":
			h.u64(uint64(row.ID))
			h.str(row.Owner)
			h.str(row.Cat)
			h.f64(row.V)
			h.str(ssn(row))
			add(h)
		case "scan":
			if row.V > float64(p) {
				h.u64(uint64(row.ID))
				h.f64(row.V)
				h.str(ssn(row))
				add(h)
			}
		case "agg":
			c := a.Groups[row.Cat]
			c.N++
			c.S += row.V
			a.Groups[row.Cat] = c
		case "join":
			if d := dims[row.K]; d.Grp == p {
				h.u64(uint64(row.ID))
				h.f64(row.V)
				h.str(d.Name)
				add(h)
			}
		case "udf":
			h.u64(uint64(row.ID))
			h.f64(pol.Score(row.V))
			add(h)
		}
	}
	if a.Groups != nil {
		a.N = int64(len(a.Groups))
	}
	return a
}

// matches compares two answers: exact counts and hashes, and floating sums
// within a relative tolerance (the engine may add in another order).
func (a Answer) matches(b Answer) bool {
	if a.N != b.N || a.H != b.H || len(a.Groups) != len(b.Groups) {
		return false
	}
	for k, x := range a.Groups {
		y, ok := b.Groups[k]
		if !ok || x.N != y.N || math.Abs(x.S-y.S) > 1e-9*math.Max(1, math.Abs(x.S)) {
			return false
		}
	}
	return true
}

// observed is one read as the benchmark saw it: the writer statements
// committed before it began (lo) and before it returned (hi), and its
// answer.
type observed struct {
	read   Read
	lo, hi int
	ans    Answer
}

// checkReads replays writes over m and reports the reads whose answer
// matches the model at no statement index in [lo, hi+1]. The +1 admits the
// one statement the writer may have had in flight: its commit can become
// visible before the writer publishes it. m is consumed.
func checkReads(m *tableModel, pol Rules, dims []Dim, writes []Write, reads []observed) (bad []observed) {
	sort.SliceStable(reads, func(i, j int) bool { return reads[i].lo < reads[j].lo })
	type key struct {
		i int
		r Read
	}
	memo := map[key]Answer{} // the mixes repeat reads on a table that never changes
	var active []observed
	next := 0
	for i := 0; ; i++ {
		for next < len(reads) && reads[next].lo <= i {
			active = append(active, reads[next])
			next++
		}
		kept := active[:0]
		for _, o := range active {
			want, ok := memo[key{i, o.read}]
			if !ok {
				want = expected(m, pol, dims, o.read)
				memo[key{i, o.read}] = want
			}
			switch {
			case want.matches(o.ans):
			case o.hi+1 <= i || i == len(writes):
				bad = append(bad, o)
			default:
				kept = append(kept, o)
			}
		}
		active = kept
		if i == len(writes) {
			return bad
		}
		m.apply(writes[i])
	}
}
