// Command e2ebench is the repository's end-to-end benchmark. It brings up a
// Lakeguard deployment in process, wired like cmd/lakeguard-server, drives
// it over real HTTP through connect.Client, checks every answer against its
// own model of the data, and prints the metrics as one JSON line.
//
// Usage (from the repository root):
//
//	bash e2ebench/run.sh --workload governed_mix --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, the metrics and how they relate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"lakeguard/internal/arrowipc"
	"lakeguard/internal/types"
)

// setups is how many times a run builds its deployment; setup_s is their
// median and the last one is measured.
const setups = 5

// guardedEnv are the variables core.NewServer and the engine read; any of
// them would change the deployment under test.
var guardedEnv = []string{"FAULTS", "FAULTS_SEED", "LAKEGUARD_PARALLELISM", "LAKEGUARD_SPILL_BYTES"}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "governed_mix, twin_mix or churn")
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured run length")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for span dumps")
	flag.Parse()
	for _, v := range guardedEnv {
		if _, set := os.LookupEnv(v); set {
			fmt.Fprintf(os.Stderr, "e2ebench: %s is set; unset it, it changes the deployment under test\n", v)
			os.Exit(2)
		}
	}
	s, err := workloadSpec(*workload, *seconds)
	if err != nil || *seconds < 1 {
		fmt.Fprintf(os.Stderr, "e2ebench: %v (seconds %d)\n", err, *seconds)
		os.Exit(2)
	}
	env := map[string]any{
		"workload": s.name, "seed": *seed, "seconds": *seconds, "trace": *trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(), "cpu": cpuModel(),
	}
	line, _ := json.Marshal(map[string]any{"env": env})
	fmt.Println(string(line))
	res, err := run(s, *seed, time.Duration(*seconds)*time.Second, *trace == 1, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func run(s spec, seed int64, dur time.Duration, traced bool, outDir string) (*result, error) {
	in := genInputs(s, seed)
	var setupTimes []float64
	var d *deployment
	for i := 0; i < setups; i++ {
		if d != nil {
			d.close()
		}
		t0 := time.Now()
		var err error
		d, err = setup(s, in)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupTimes = append(setupTimes, time.Since(t0).Seconds())
	}
	defer d.close()

	r := &runner{s: s, d: d, in: in, seed: seed, next: make([]int, len(s.writerTables))}
	r.tenants, r.admin = d.tenants, d.admin
	for range s.writerTables {
		if s.dedicated {
			r.models = append(r.models, newTableModel(in.rows))
		} else {
			r.models = append(r.models, newTableModel(in.scratch))
		}
	}
	runtime.GC()
	var phases []*phase
	var base, after counters
	var heapPeak uint64
	if traced {
		// The untraced half gives the counts and the HTTP baseline; the
		// traced half repeats the loop with every layer called again on the
		// same query, and gives the layer timings.
		half := (s.writes + 1) / 2
		base = readCounters(d)
		pu := r.runPhase(dur/2, half)
		after = readCounters(d)
		r.tr = newTracer(d)
		pt := r.runPhase(dur/2, s.writes)
		phases = []*phase{pu, pt}
	} else {
		base = readCounters(d)
		stopHeap := sampleHeap()
		p := r.runPhase(dur, s.writes)
		after = readCounters(d)
		heapPeak = stopHeap()
		phases = []*phase{p}
	}

	res := &result{Correct: true, Metrics: map[string]metric{}}
	var reads []observed
	executed := make([][]Write, len(s.writerTables))
	for _, p := range phases {
		res.Attempted += len(p.ops) + len(p.failures)
		res.Failed += len(p.failures)
		for _, f := range p.failures {
			fmt.Printf("# failed: %s\n", f)
		}
		for _, b := range p.badWrite {
			fmt.Printf("# wrong: %s\n", b)
			res.Correct = false
		}
		reads = append(reads, p.reads...)
		for w := range executed {
			executed[w] = append(executed[w], p.executed[w]...)
		}
	}
	if bad := checkAll(s, in, reads, executed); len(bad) > 0 {
		res.Correct = false
		for _, b := range bad[:min(len(bad), 5)] {
			fmt.Printf("# wrong: %s\n", b)
		}
	}
	if err := checkFinal(r); err != nil {
		res.Correct = false
		fmt.Printf("# wrong: %v\n", err)
	}
	if traced {
		if err := r.tr.finalRound(r); err != nil {
			res.Correct = false
			fmt.Printf("# wrong: %v\n", err)
		}
		if !r.tr.ok() {
			res.Correct = false
		}
		if err := layerMetrics(res, r, phases[0], base, after); err != nil {
			return nil, err
		}
		if err := r.tr.dump(filepath.Join(outDir, "traces", fmt.Sprintf("%s-seed%d.jsonl", s.name, seed))); err != nil {
			return nil, err
		}
		return res, nil
	}
	if err := endToEnd(res, r, phases[0], base, after, heapPeak, setupTimes); err != nil {
		return nil, err
	}
	return res, nil
}

// checkAll checks every read against the model at a writer index it could
// have seen. In the mixes the read table never changes.
func checkAll(s spec, in inputs, reads []observed, executed [][]Write) []string {
	var writes []Write
	if s.dedicated {
		writes = executed[0]
	}
	bad := checkReads(newTableModel(in.rows), s.rules, in.dims, writes, reads)
	var msgs []string
	for _, o := range bad {
		msgs = append(msgs, fmt.Sprintf("%s as %s (param %d, writer %d..%d): %d rows", o.read.Class, o.read.Tenant, o.read.Param, o.lo, o.hi, o.ans.N))
	}
	return msgs
}

// checkFinal compares every written table, read back in full, with its
// model.
func checkFinal(r *runner) error {
	for w, t := range r.s.writerTables {
		b, err := r.admin.Sql("SELECT id, owner, cat, k, v, ssn FROM " + t).Collect()
		if err != nil {
			return fmt.Errorf("final read of %s: %w", t, err)
		}
		got, err := digest("rows", b)
		if err != nil {
			return err
		}
		if want := modelDigest(r.models[w]); !got.matches(want) {
			return fmt.Errorf("final %s: %d rows, model has %d (or contents differ)", t, got.N, want.N)
		}
	}
	return nil
}

func modelDigest(m *tableModel) Answer {
	var a Answer
	for id := range m.rows {
		if !m.live[id] {
			continue
		}
		row := &m.rows[id]
		h := rowHash(fnvOffset)
		h.u64(uint64(row.ID))
		h.str(row.Owner)
		h.str(row.Cat)
		h.u64(uint64(row.K))
		h.f64(row.V)
		h.str(row.SSN)
		a.N++
		a.H += h.final()
	}
	return a
}

// liveBytes is the arrowipc-encoded size of the model's live rows.
func liveBytes(m *tableModel) (int64, error) {
	bb := types.NewBatchBuilder(rowSchema, int(m.n))
	for id := range m.rows {
		if m.live[id] {
			r := m.rows[id]
			bb.AppendRow([]types.Value{types.Int64(r.ID), types.String(r.Owner), types.String(r.Cat),
				types.Int64(r.K), types.Float64(r.V), types.String(r.SSN)})
		}
	}
	data, err := arrowipc.EncodeBatch(bb.Build())
	return int64(len(data)), err
}

// endToEnd fills the user-visible metrics of an untraced run.
func endToEnd(res *result, r *runner, p *phase, base, after counters, heapPeak uint64, setupTimes []float64) error {
	set := func(name string, v float64, unit string) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	byKind := map[string][]float64{}
	var reads, writes []float64
	var writeBusy float64
	for _, o := range p.ops {
		byKind[o.kind] = append(byKind[o.kind], o.ms)
		if o.read {
			reads = append(reads, o.ms)
		} else {
			writes = append(writes, o.ms)
			writeBusy += o.ms
		}
	}
	set("setup_s", quantile(setupTimes, 0.5), "s")
	set("read_qps", float64(len(reads))/p.window.Seconds(), "1/s")
	// A writer is a closed loop, so its rate is statements per second of
	// its own busy time; in churn that is the writer's wall time.
	set("write_ops_per_s", float64(len(writes))/(writeBusy/1000), "1/s")
	for _, c := range classes {
		set(c+"_p50_ms", quantile(byKind[c], 0.5), "ms")
	}
	set("read_p95_ms", quantile(reads, 0.95), "ms")
	for _, k := range []string{"insert", "delete", "update"} {
		set(k+"_p50_ms", quantile(byKind[k], 0.5), "ms")
	}
	ops := float64(len(p.ops))
	set("alloc_mb_per_op", float64(after.allocBytes-base.allocBytes)/1e6/ops, "MB")
	set("heap_peak_mb", float64(heapPeak)/1e6, "MB")
	var stored, live int64
	for w, t := range r.s.writerTables {
		if _, err := runSQL(r.admin, "VACUUM "+t); err != nil {
			return err
		}
		n, err := r.d.storedBytes(t)
		if err != nil {
			return err
		}
		l, err := liveBytes(r.models[w])
		if err != nil {
			return err
		}
		stored += n
		live += l
	}
	set("bytes_stored_per_live_byte", float64(stored)/float64(live), "ratio")
	return nil
}

// quantile is the nearest-rank quantile of xs (NaN when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// sampleHeap samples the live heap every 10ms until the returned function
// is called, which returns the peak.
func sampleHeap() func() uint64 {
	stop, done := make(chan struct{}), make(chan uint64)
	go func() {
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		t := time.NewTicker(10 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(sample)
			peak = max(peak, sample[0].Value.Uint64())
			select {
			case <-stop:
				done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return func() uint64 {
		close(stop)
		return <-done
	}
}
