package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/analyzer"
	"lakeguard/internal/arrowipc"
	"lakeguard/internal/catalog"
	"lakeguard/internal/delta"
	"lakeguard/internal/exec"
	"lakeguard/internal/optimizer"
	"lakeguard/internal/plan"
	"lakeguard/internal/proto"
	"lakeguard/internal/sentinel"
	"lakeguard/internal/sql"
	"lakeguard/internal/storage"
	"lakeguard/internal/types"
)

// layers are the module calls a read is decomposed into, in pipeline order,
// with the unit each is reported in.
var layers = []struct{ name, unit string }{
	{"proto.encode_us", "us"},
	{"proto.decode_us", "us"},
	{"sql.parse_us", "us"},
	{"analyzer.analyze_us", "us"},
	{"optimizer.optimize_us", "us"},
	{"sentinel.verify_us", "us"},
	{"exec.execute_ms", "ms"},
	{"arrowipc.encode_us", "us"},
	{"arrowipc.decode_us", "us"},
}

// span is one layer call of one query. Spans of a query share q; layer
// spans are children of the query's "pipeline" span.
type span struct {
	Q      int64  `json:"q"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Class  string `json:"class"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

// tracer keeps the traced phase's spans in memory and calls each module's
// public function on the query the HTTP path just ran.
type tracer struct {
	engine *exec.Engine
	opts   optimizer.Options
	epoch  time.Time
	qid    atomic.Int64

	mu       sync.Mutex
	spans    []span
	samples  map[string][]float64 // layer.class -> samples in the layer's unit
	http     map[string][]float64 // class -> HTTP ms of the traced phase
	writes   map[string][]float64 // write kind -> core.Server.Execute ms
	compared map[string]int       // class -> decompositions equal to the HTTP answer
	wrong    []string
}

func newTracer(d *deployment) *tracer {
	opts := optimizer.DefaultOptions()
	return &tracer{
		// The server's own dispatcher requires verified plans, so the
		// decomposed execution crosses into sandboxes under the same gate.
		engine: &exec.Engine{
			Tables: d.cat, Dispatcher: d.server().Dispatcher(), FuseUDFs: opts.FuseUDFs,
			Parallelism: runtime.NumCPU(),
		},
		opts: opts, epoch: time.Now(),
		samples: map[string][]float64{}, http: map[string][]float64{},
		writes: map[string][]float64{}, compared: map[string]int{},
	}
}

// decompose runs the read's pipeline one module call at a time, records
// its spans and timings, and returns its answer.
func (t *tracer) decompose(d *deployment, rd Read, sessionID, query string, httpTook time.Duration) (Answer, error) {
	q := t.qid.Add(1)
	var took [9]time.Duration
	var spans []span
	pipeStart := time.Now()
	step := func(i int, f func() error) error {
		t0 := time.Now()
		err := f()
		took[i] = time.Since(t0)
		spans = append(spans, span{Q: q, Name: layers[i].name, Parent: "pipeline", Class: rd.Class,
			Start: int64(t0.Sub(t.epoch)), Dur: int64(took[i])})
		return err
	}
	var body []byte
	var decoded *proto.Plan
	var parsed, resolved, optimized plan.Node
	var sealed *sentinel.Sealed
	var batches []*types.Batch
	var wire bytes.Buffer
	var out *types.Batch
	ctx := catalog.RequestContext{User: rd.Tenant, Compute: catalog.ComputeServerless, ClusterID: "bench-trace", SessionID: sessionID}
	steps := []func() error{
		func() (err error) {
			body, err = proto.EncodeRootPlan(&proto.Plan{Relation: &plan.SQLRelation{Query: query}})
			return err
		},
		func() (err error) { decoded, err = proto.DecodeRootPlan(body); return err },
		func() (err error) {
			sr, ok := decoded.Relation.(*plan.SQLRelation)
			if !ok {
				return fmt.Errorf("decoded relation is %T", decoded.Relation)
			}
			parsed, err = sql.ParseQuery(sr.Query)
			return err
		},
		func() (err error) { resolved, err = analyzer.New(d.cat, ctx).Analyze(parsed); return err },
		func() error { optimized = optimizer.Optimize(resolved, t.opts); return nil },
		func() (err error) {
			report := sentinel.Verify(resolved, optimized)
			if err := report.Err(); err != nil {
				return err
			}
			if sealed, err = sentinel.Seal(optimized, report); err != nil {
				return err
			}
			return sealed.Check()
		},
		func() (err error) {
			qc := exec.NewQueryContext(d.cat, ctx)
			qc.Context = context.Background()
			qc.VerifiedPlan = sealed.Fingerprint()
			batches, err = t.engine.Execute(qc, sealed.Plan)
			return err
		},
		func() error {
			w, err := arrowipc.NewWriter(&wire, resolved.Schema())
			if err != nil {
				return err
			}
			for _, b := range batches {
				if err := w.WriteBatch(b); err != nil {
					return err
				}
			}
			return w.Close()
		},
		func() error {
			rdr, err := arrowipc.NewReader(&wire)
			if err != nil {
				return err
			}
			all, err := rdr.ReadAll()
			if err != nil {
				return err
			}
			out, err = arrowipc.ConcatBatches(rdr.Schema(), all)
			return err
		},
	}
	for i, f := range steps {
		if err := step(i, f); err != nil {
			return Answer{}, fmt.Errorf("decomposed %s: %w", layers[i].name, err)
		}
	}
	ans, err := digest(rd.Class, out)
	if err != nil {
		return Answer{}, err
	}
	spans = append(spans, span{Q: q, Name: "pipeline", Class: rd.Class, Start: int64(pipeStart.Sub(t.epoch)), Dur: int64(time.Since(pipeStart))},
		span{Q: q, Name: "http", Class: rd.Class, Start: int64(pipeStart.Add(-httpTook).Sub(t.epoch)), Dur: int64(httpTook)})
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, spans...)
	t.http[rd.Class] = append(t.http[rd.Class], ms(httpTook))
	for i, l := range layers {
		v := float64(took[i]) / float64(time.Microsecond)
		if l.unit == "ms" {
			v /= 1000
		}
		k := l.name + "." + rd.Class
		t.samples[k] = append(t.samples[k], v)
	}
	return ans, nil
}

// compare checks a decomposed answer against the HTTP answer of the same
// read on a table that did not change in between.
func (t *tracer) compare(rd Read, decomposed, viaHTTP Answer) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if decomposed.matches(viaHTTP) {
		t.compared[rd.Class]++
		return
	}
	t.wrong = append(t.wrong, fmt.Sprintf("%s as %s: decomposed pipeline returned %d rows, HTTP %d", rd.Class, rd.Tenant, decomposed.N, viaHTTP.N))
}

// coreExecute issues a writer statement at core.Server.Execute, the entry
// point below HTTP, session routing and admission.
func (t *tracer) coreExecute(d *deployment, sessionID, stmt, kind string) (*types.Batch, error) {
	t0 := time.Now()
	_, batches, err := d.server().Execute(context.Background(), sessionID, admin, &proto.Plan{Command: &proto.Command{SQL: stmt}})
	took := time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", truncate(stmt), err)
	}
	t.mu.Lock()
	t.writes[kind] = append(t.writes[kind], ms(took))
	t.spans = append(t.spans, span{Q: t.qid.Add(1), Name: "core.execute", Class: kind, Start: int64(t0.Sub(t.epoch)), Dur: int64(took)})
	t.mu.Unlock()
	return batches[0], nil
}

// finalRound runs every class once more for every tenant on a quiet
// deployment (no writer running), so each class has its decomposition
// compared with the HTTP answer, also in churn.
func (t *tracer) finalRound(r *runner) error {
	rng := newRand(r.seed)
	for ti, c := range r.tenants {
		for _, class := range classes {
			rd := Read{Class: class, Tenant: tenant(ti), Param: readParam(rng, class, int64(r.s.rows))}
			q := querySQL(rd, r.s.table, r.s.inline)
			t0 := time.Now()
			b, err := c.Sql(q).Collect()
			if err != nil {
				return fmt.Errorf("final round %s: %w", class, err)
			}
			took := time.Since(t0)
			ans, err := digest(class, b)
			if err != nil {
				return err
			}
			dec, err := t.decompose(r.d, rd, c.SessionID(), q, took)
			if err != nil {
				return err
			}
			t.compare(rd, dec, ans)
		}
	}
	for _, class := range classes {
		if t.compared[class] == 0 {
			return fmt.Errorf("class %s: no decomposition was compared with the HTTP answer", class)
		}
	}
	return nil
}

func (t *tracer) ok() bool {
	for _, w := range t.wrong {
		fmt.Printf("# wrong: %s\n", w)
	}
	return len(t.wrong) == 0
}

// dump writes the spans as JSON lines.
func (t *tracer) dump(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// counters is a snapshot of the deployment's shared registry, its HTTP
// request count and the process's allocation counters.
type counters struct {
	c          map[string]int64
	waitSum    float64
	waitN      int64
	requests   int64
	allocBytes uint64
	gcCycles   uint64
}

var counterNames = []string{
	"storage.get_ops", "storage.get_bytes", "storage.put_ops", "storage.put_bytes", "storage.list_ops",
	"batch.cache.hits", "batch.cache.misses", "catalog.vends",
	"snapshot.entries.replayed", "snapshot.cache.hit", "snapshot.cache.miss",
	"delta.checkpoint.writes", "delta.commit.retries",
	"scan.files.scanned", "scan.files.pruned", "scan.files.rf_pruned", "scan.rows.dv_masked",
	"exec.rows_out", "sandbox.cold_starts", "sandbox.reuses",
}

func readCounters(d *deployment) counters {
	c := counters{c: map[string]int64{}, requests: d.requests.Load()}
	for _, n := range counterNames {
		c.c[n] = d.metrics.Counter(n).Value()
	}
	h := d.metrics.Histogram("admission.wait_ms", nil)
	c.waitSum, c.waitN = h.Sum(), h.Count()
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	c.allocBytes, c.gcCycles = s[0].Value.Uint64(), s[1].Value.Uint64()
	return c
}

var vecRe = regexp.MustCompile(`vectorized (\d+)/(\d+)`)

// layerMetrics fills the per-layer metrics of a traced run: counts from the
// untraced half pu (registry deltas base..after), timings from the traced
// half that r.tr recorded.
func layerMetrics(res *result, r *runner, pu *phase, base, after counters) error {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	t := r.tr
	httpU := map[string][]float64{}
	var reads, writes, udfReads float64
	for _, o := range pu.ops {
		if o.read {
			httpU[o.kind] = append(httpU[o.kind], o.ms)
			reads++
			if o.kind == "udf" {
				udfReads++
			}
		} else {
			writes++
		}
	}
	ops := reads + writes
	diff := func(n string) float64 { return float64(after.c[n] - base.c[n]) }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var httpT, httpBase float64
	for _, c := range classes {
		sum := 0.0
		for _, l := range layers {
			m := quantile(t.samples[l.name+"."+c], 0.5)
			set(l.name+"."+c, m, l.unit)
			if l.unit == "us" {
				m /= 1000
			}
			sum += m
		}
		h := quantile(t.http[c], 0.5)
		set("connect.unattributed_ms."+c, h-sum, "ms")
		httpT += h
		httpBase += quantile(httpU[c], 0.5)
		rd := Read{Class: c, Tenant: tenant(2), Param: readParam(newRand(r.seed), c, int64(r.s.rows))}
		a, _, err := r.tenants[2].SqlExplainAnalyze(querySQL(rd, r.s.table, r.s.inline))
		if err != nil {
			return fmt.Errorf("explain analyze %s: %w", c, err)
		}
		var vec, all float64
		for _, m := range vecRe.FindAllStringSubmatch(a, -1) {
			v, _ := strconv.ParseFloat(m[1], 64)
			n, _ := strconv.ParseFloat(m[2], 64)
			vec += v
			all += n
		}
		set("exec.vectorized_batch_ratio."+c, ratio(vec, all), "ratio")
	}
	set("bench.trace_overhead_ratio", httpT/httpBase, "ratio")
	for _, k := range []string{"insert", "delete", "update"} {
		set("core.execute_ms."+k, quantile(t.writes[k], 0.5), "ms")
	}
	set("connect.http_requests_per_query", float64(after.requests-base.requests)/ops, "count")
	set("storage.get_ops_per_op", diff("storage.get_ops")/ops, "count")
	set("storage.get_bytes_per_op", diff("storage.get_bytes")/ops, "B")
	set("storage.list_ops_per_op", diff("storage.list_ops")/ops, "count")
	set("storage.put_ops_per_write", ratio(diff("storage.put_ops"), writes), "count")
	set("storage.put_bytes_per_write", ratio(diff("storage.put_bytes"), writes), "B")
	hits := diff("batch.cache.hits")
	set("catalog.batch_cache_hit_ratio", ratio(hits, hits+diff("batch.cache.misses")), "ratio")
	set("catalog.vends_per_query", diff("catalog.vends")/reads, "count")
	set("delta.entries_replayed_per_read", diff("snapshot.entries.replayed")/reads, "count")
	sh := diff("snapshot.cache.hit")
	set("delta.snapshot_cache_hit_ratio", ratio(sh, sh+diff("snapshot.cache.miss")), "ratio")
	set("delta.checkpoint_writes", diff("delta.checkpoint.writes"), "count")
	set("delta.commit_retries", diff("delta.commit.retries"), "count")
	scanned := diff("scan.files.scanned")
	pruned := diff("scan.files.pruned") + diff("scan.files.rf_pruned")
	set("exec.files_scanned_per_query", scanned/reads, "count")
	set("exec.files_pruned_ratio", ratio(pruned, scanned+pruned), "ratio")
	set("exec.dv_masked_rows_per_read", diff("scan.rows.dv_masked")/reads, "count")
	set("exec.rows_out_per_query", diff("exec.rows_out")/reads, "count")
	set("sandbox.cold_starts", diff("sandbox.cold_starts"), "count")
	set("sandbox.reuses_per_udf_query", ratio(diff("sandbox.reuses"), udfReads), "count")
	set("admission.wait_ms", ratio(after.waitSum-base.waitSum, float64(after.waitN-base.waitN)), "ms")
	fh := r.d.metrics.Histogram("systemtables.flush_ms", nil)
	set("systemtables.flush_ms", ratio(fh.Sum(), float64(fh.Count())), "ms")
	set("runtime.gc_cycles_per_op", float64(after.gcCycles-base.gcCycles)/ops, "count")

	table := []string{r.s.writerTables[0]}
	ctx := adminCtx()
	cred, err := r.d.cat.VendCredential(ctx, table, storage.ModeReadWrite)
	if err != nil {
		return err
	}
	var cold []float64
	var files int
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		l, err := delta.Open(r.d.store, cred, cred.Prefix)
		if err != nil {
			return err
		}
		snap, err := l.Snapshot(cred, -1)
		if err != nil {
			return err
		}
		cold = append(cold, ms(time.Since(t0)))
		files = len(snap.Files)
	}
	set("delta.snapshot_cold_ms", quantile(cold, 0.5), "ms")
	set("delta.live_files", float64(files), "count")
	t0 := time.Now()
	if _, err := r.d.cat.CompactTable(ctx, table, 0); err != nil {
		return err
	}
	set("catalog.optimize_ms", ms(time.Since(t0)), "ms")
	return nil
}
