package main

import (
	"testing"
)

// answersFrom runs every class once per tenant over HTTP against a small
// deployment of the workload and returns the observed answers.
func answersFrom(t *testing.T, workload string) (inputs, []observed) {
	t.Helper()
	s, err := workloadSpec(workload, 1)
	if err != nil {
		t.Fatal(err)
	}
	s.rows = 2 * fileRows
	in := genInputs(s, 7)
	d, err := setup(s, in)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	rng := newRand(7)
	var reads []observed
	for round := 0; round < 2; round++ {
		for ti, c := range d.tenants {
			for _, class := range classes {
				rd := Read{Class: class, Tenant: tenant(ti), Param: readParam(rng, class, int64(s.rows))}
				b, err := c.Sql(querySQL(rd, s.table, s.inline)).Collect()
				if err != nil {
					t.Fatalf("%s as %s: %v", class, rd.Tenant, err)
				}
				ans, err := digest(class, b)
				if err != nil {
					t.Fatal(err)
				}
				reads = append(reads, observed{read: rd, ans: ans})
			}
		}
	}
	return in, reads
}

// TestModelCatchesWrongRules shows the answer checks accept the engine's
// results under the right rules and reject them under each wrong one, for
// the governed table and for its hand-filtered twin.
func TestModelCatchesWrongRules(t *testing.T) {
	broken := map[string]Rules{
		"mask not applied":       {Visible: tableRules.Visible, ShowSSN: func(string) bool { return true }, Score: score},
		"mask applied to hr":     {Visible: tableRules.Visible, ShowSSN: func(string) bool { return false }, Score: score},
		"row filter not applied": {Visible: openRules.Visible, ShowSSN: tableRules.ShowSSN, Score: score},
		"auditors ignored": {
			Visible: func(user string, r *Row) bool { return r.Owner == user },
			ShowSSN: tableRules.ShowSSN, Score: score,
		},
		"score rule wrong": {Visible: tableRules.Visible, ShowSSN: tableRules.ShowSSN, Score: func(v float64) float64 { return v + 1 }},
	}
	for _, w := range []string{"governed_mix", "twin_mix"} {
		t.Run(w, func(t *testing.T) {
			in, reads := answersFrom(t, w)
			check := func(r Rules) []observed {
				return checkReads(newTableModel(in.rows), r, in.dims, nil, append([]observed(nil), reads...))
			}
			if bad := check(tableRules); len(bad) > 0 {
				t.Fatalf("right rules: %d of %d answers rejected, first %+v", len(bad), len(reads), bad[0].read)
			}
			for name, r := range broken {
				if bad := check(r); len(bad) == 0 {
					t.Errorf("%s: every answer accepted", name)
				}
			}
		})
	}
}

// TestCheckReadsIsolationWindow shows a churn read is accepted only when
// its answer is the table's state at a statement index inside its window
// (allowing the one statement in flight).
func TestCheckReadsIsolationWindow(t *testing.T) {
	seed := genRows(newRand(5), updateRange+2)
	writes := []Write{
		{Kind: "delete", ID: 0},
		{Kind: "insert", Rows: genRows(newRand(6), updateRange+4)[updateRange+2:]},
		{Kind: "update", ID: 1},
		{Kind: "delete", ID: updateRange + 3},
	}
	// The agg answer at each state index.
	var states []Answer
	m := newTableModel(seed)
	agg := Read{Class: "agg", Tenant: tenant(3)}
	for i := 0; ; i++ {
		states = append(states, expected(m, openRules, genDims(), agg))
		if i == len(writes) {
			break
		}
		m.apply(writes[i])
	}
	cases := []struct {
		state, lo, hi int
		ok            bool
	}{
		{state: 0, lo: 0, hi: 0, ok: true},
		{state: 1, lo: 0, hi: 0, ok: true}, // the statement in flight
		{state: 2, lo: 0, hi: 0, ok: false},
		{state: 3, lo: 1, hi: 2, ok: true},
		{state: 1, lo: 2, hi: 3, ok: false}, // older than the read's start
		{state: 4, lo: 4, hi: 4, ok: true},
	}
	for _, c := range cases {
		bad := checkReads(newTableModel(seed), openRules, genDims(), writes,
			[]observed{{read: agg, lo: c.lo, hi: c.hi, ans: states[c.state]}})
		if (len(bad) == 0) != c.ok {
			t.Errorf("state %d in window [%d,%d]: accepted=%v, want %v", c.state, c.lo, c.hi, len(bad) == 0, c.ok)
		}
	}
}

// TestWriteSequence checks the generated statements keep ids dense and
// their affected counts follow the model.
func TestWriteSequence(t *testing.T) {
	rows := genRows(newRand(3), 100)
	ws := genWrites(newRand(4), 3*maintEvery, 100)
	m := newTableModel(rows)
	optimizes := 0
	for _, w := range ws {
		n := m.apply(w)
		switch w.Kind {
		case "insert":
			if n != insertRows {
				t.Fatalf("insert affected %d", n)
			}
		case "update":
			if n > updateRange {
				t.Fatalf("update affected %d", n)
			}
		case "optimize":
			optimizes++
		}
	}
	if optimizes != 2 {
		t.Fatalf("%d OPTIMIZE statements in %d, want 2", optimizes, len(ws))
	}
}
