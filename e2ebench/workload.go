package main

import (
	"fmt"
	"math/rand"
	"regexp"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/connect"
	"lakeguard/internal/types"
)

// spec describes one workload: which table the readers query, under which
// rules their answers are checked, and which tables the writers change.
type spec struct {
	name    string
	table   string // read table
	inline  bool   // policy written into each query (the ungoverned twin)
	govern  bool   // catalog row filter and mask on the read table
	rules   Rules  // model rules for reads
	rows    int    // seeded rows in the read table
	readers int
	// writerTables are the tables the writers change, one writer each. In
	// the mixes reader i is also writer i and issues its whole sequence
	// before its first read; in churn a dedicated writer runs
	// beside the reader and the run ends when its sequence is done.
	writerTables []string
	dedicated    bool
	writes       int // statements per writer
}

func workloadSpec(name string, seconds int) (spec, error) {
	switch name {
	case "governed_mix", "twin_mix":
		s := spec{
			name: name, table: "events", govern: true, rules: tableRules,
			rows: eventFiles * fileRows, readers: 2,
			writerTables: []string{"scratch_0", "scratch_1"}, writes: mixWrites,
		}
		if name == "twin_mix" {
			s.table, s.inline, s.govern = "events_twin", true, false
		}
		return s, nil
	case "churn":
		return spec{
			name: name, table: "ledger", rules: openRules,
			rows: ledgerFiles * fileRows, readers: 1,
			writerTables: []string{"ledger"}, dedicated: true, writes: churnWritesPerSecond * seconds,
		}, nil
	}
	return spec{}, fmt.Errorf("unknown workload %q (want governed_mix, twin_mix or churn)", name)
}

const (
	// mixWrites is each mix client's write sequence. A client issues it
	// before its first read, so the write metrics exist on every workload,
	// the two mixes write under the same load, and the final scratch state
	// is the same on every run.
	mixWrites = 900
	// churnWritesPerSecond sizes churn's fixed write sequence from the run
	// length, so the run takes about --seconds on a 2-vCPU host.
	churnWritesPerSecond = 150
)

// inputs are everything a run derives from its seed.
type inputs struct {
	rows    []Row // read table
	scratch []Row // the mixes' scratch tables
	writes  [][]Write
	dims    []Dim
}

func genInputs(s spec, seed int64) inputs {
	rng := rand.New(rand.NewSource(seed))
	in := inputs{rows: genRows(rng, s.rows), dims: genDims()}
	base := int64(s.rows)
	if !s.dedicated {
		in.scratch = genRows(rng, scratchRows)
		base = scratchRows
	}
	for range s.writerTables {
		in.writes = append(in.writes, genWrites(rng, s.writes, base))
	}
	return in
}

// setup builds a deployment, seeds it and warms it up.
func setup(s spec, in inputs) (*deployment, error) {
	d, err := startDeployment()
	if err != nil {
		return nil, err
	}
	if err := seed(d, s, in); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

func seed(d *deployment, s spec, in inputs) error {
	if err := d.seedShared(in.dims); err != nil {
		return err
	}
	if err := d.createRowTable(s.table, in.rows); err != nil {
		return err
	}
	if s.govern {
		if err := d.governEvents(s.table); err != nil {
			return err
		}
	}
	if !s.dedicated {
		for _, t := range s.writerTables {
			if err := d.createRowTable(t, in.scratch); err != nil {
				return err
			}
		}
	}
	// Warm-up: every tenant runs every class once, so sessions, sandboxes
	// and the decoded-batch cache are in place before timing starts.
	rng := rand.New(rand.NewSource(1))
	for i, c := range d.tenants {
		for _, class := range classes {
			r := Read{Class: class, Tenant: tenant(i), Param: readParam(rng, class, int64(s.rows))}
			if _, err := c.Sql(querySQL(r, s.table, s.inline)).Collect(); err != nil {
				return fmt.Errorf("warm-up %s: %w", class, err)
			}
		}
	}
	return nil
}

// opRecord is one timed operation.
type opRecord struct {
	kind string // a read class or a write kind
	ms   float64
	read bool
}

// phase is what one timed run of the workload loop observed.
type phase struct {
	ops      []opRecord
	reads    []observed
	window   time.Duration
	failures []string
	badWrite []string
	executed [][]Write // per writer, the statements that committed
}

// runner drives one phase of a workload against a deployment.
type runner struct {
	s       spec
	d       *deployment
	in      inputs
	tenants []*connect.Client
	admin   *connect.Client
	models  []*tableModel // per writer
	next    []int         // per writer: next statement of in.writes
	tr      *tracer       // nil outside the traced phase
	seed    int64
}

var affectedRe = regexp.MustCompile(`^(?:deleted|updated|inserted) (\d+) rows`)

// write issues one statement of writer w and checks its affected-row count
// against the model.
func (r *runner) write(w int, p *phase, mu *sync.Mutex, committed *atomic.Int64) {
	st := r.in.writes[w][r.next[w]]
	r.next[w]++
	stmt := writeSQL(st, r.s.writerTables[w])
	t0 := time.Now()
	var b *types.Batch
	var err error
	if r.tr != nil {
		b, err = r.tr.coreExecute(r.d, r.admin.SessionID(), stmt, st.Kind)
	} else {
		b, err = runSQL(r.admin, stmt)
	}
	el := time.Since(t0)
	want := r.models[w].apply(st)
	if committed != nil {
		committed.Add(1)
	}
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		p.failures = append(p.failures, err.Error())
		return
	}
	p.ops = append(p.ops, opRecord{kind: st.Kind, ms: ms(el)})
	p.executed[w] = append(p.executed[w], st)
	if st.Kind == "insert" || st.Kind == "delete" || st.Kind == "update" {
		m := affectedRe.FindStringSubmatch(b.Cols[0].StringAt(0))
		if m == nil {
			p.badWrite = append(p.badWrite, fmt.Sprintf("%s: unexpected result %q", stmt, b.Cols[0].StringAt(0)))
			return
		}
		if got, _ := strconv.ParseInt(m[1], 10, 64); got != want {
			p.badWrite = append(p.badWrite, fmt.Sprintf("%s: affected %d rows, model says %d", truncate(stmt), got, want))
		}
	}
}

// read issues one read and records its answer with the writer statements
// committed around it.
func (r *runner) read(rd Read, ti int, p *phase, mu *sync.Mutex, committed *atomic.Int64) {
	q := querySQL(rd, r.s.table, r.s.inline)
	lo := 0
	if committed != nil {
		lo = int(committed.Load())
	}
	t0 := time.Now()
	b, err := r.tenants[ti].Sql(q).Collect()
	el := time.Since(t0)
	hi := lo
	if committed != nil {
		hi = int(committed.Load())
	}
	var ans, dec Answer
	if err == nil {
		ans, err = digest(rd.Class, b)
	}
	if err == nil && r.tr != nil {
		dec, err = r.tr.decompose(r.d, rd, r.tenants[ti].SessionID(), q, el)
	}
	mu.Lock()
	defer mu.Unlock()
	if err != nil {
		p.failures = append(p.failures, fmt.Sprintf("%s: %v", truncate(q), err))
		return
	}
	p.ops = append(p.ops, opRecord{kind: rd.Class, ms: ms(el), read: true})
	p.reads = append(p.reads, observed{read: rd, lo: lo, hi: hi, ans: ans})
	if r.tr == nil {
		return
	}
	if committed == nil {
		r.tr.compare(rd, dec, ans)
		return
	}
	// A write may commit between the HTTP read and its decomposition, so in
	// churn the decomposed answer is checked against the model like a read
	// of its own, over the window up to its return.
	p.reads = append(p.reads, observed{read: rd, lo: lo, hi: int(committed.Load()), ans: dec})
}

// runPhase runs whole rounds until the duration has passed and every writer
// has issued its share (writeShare statements each).
func (r *runner) runPhase(dur time.Duration, writeShare int) *phase {
	p := &phase{executed: make([][]Write, len(r.s.writerTables))}
	var mu sync.Mutex
	var committed *atomic.Int64
	if r.s.dedicated {
		committed = &atomic.Int64{}
		committed.Store(int64(r.next[0]))
	}
	limit := make([]int, len(r.next))
	for w := range limit {
		limit[w] = min(r.next[w]+writeShare, len(r.in.writes[w]))
	}
	start := time.Now()
	deadline := start.Add(dur)
	var writerDone atomic.Bool
	var wg sync.WaitGroup
	if r.s.dedicated {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer writerDone.Store(true)
			for r.next[0] < limit[0] {
				r.write(0, p, &mu, committed)
			}
		}()
	}
	for c := 0; c < r.s.readers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed<<8 | int64(c+1)))
			for round := 0; ; round++ {
				for !r.s.dedicated && r.next[c] < limit[c] {
					r.write(c, p, &mu, nil)
				}
				ti := (round + c*numTenants/2) % numTenants
				for _, class := range classes {
					rd := Read{Class: class, Tenant: tenant(ti), Param: readParam(rng, class, int64(r.s.rows))}
					r.read(rd, ti, p, &mu, committed)
				}
				more := time.Now().Before(deadline)
				if r.s.dedicated {
					more = !writerDone.Load()
				}
				if !more {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	p.window = time.Since(start)
	return p
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
