package main

import (
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"lakeguard/internal/admission"
	"lakeguard/internal/audit"
	"lakeguard/internal/catalog"
	"lakeguard/internal/connect"
	"lakeguard/internal/core"
	"lakeguard/internal/gateway"
	"lakeguard/internal/session"
	"lakeguard/internal/storage"
	"lakeguard/internal/systemtables"
	"lakeguard/internal/telemetry"
	"lakeguard/internal/types"
)

// deployment is one in-process Lakeguard deployment wired the way
// cmd/lakeguard-server wires it by default, served over a loopback HTTP
// listener.
type deployment struct {
	store   *storage.Store
	cat     *catalog.Catalog
	metrics *telemetry.Registry
	spooler *systemtables.Spooler
	gw      *gateway.Gateway
	url     string
	// tenants holds one Connect session per tenant and admin one for the
	// admin; warm-up and the measured run share them.
	tenants []*connect.Client
	admin   *connect.Client

	// requests counts HTTP requests reaching the Connect handler.
	requests atomic.Int64

	mu      sync.Mutex
	servers []*core.Server

	httpSrv     *http.Server
	served      chan struct{}
	stopSweeper func()
	stopHealth  chan struct{}
	healthDone  chan struct{}
}

func adminCtx() catalog.RequestContext {
	return catalog.RequestContext{User: admin, Compute: catalog.ComputeStandard, SessionID: "bench-seed"}
}

// token maps a user to its bearer token.
func token(user string) string { return "tok-" + user }

func startDeployment() (*deployment, error) {
	d := &deployment{store: storage.NewStore(), metrics: telemetry.NewRegistry()}
	auditLog := audit.NewLog()
	d.cat = catalog.New(d.store, auditLog)
	d.cat.AddAdmin(admin)
	d.cat.SetMetrics(d.metrics)
	tracer := telemetry.NewTracer()
	tracer.SetSlowThreshold(time.Second)

	sp, err := systemtables.New(systemtables.Config{
		Catalog: d.cat, Audit: auditLog, Metrics: d.metrics,
		FlushInterval: 2 * time.Second, Retention: 30 * 24 * time.Hour,
	})
	if err != nil {
		return nil, fmt.Errorf("system tables: %w", err)
	}
	d.spooler = sp
	sp.Start()

	sessions := session.NewStore()
	d.gw = gateway.New(gateway.Config{
		Provision: func(name string) *core.Server {
			srv := core.NewServer(core.Config{
				Name: name, Catalog: d.cat, Compute: catalog.ComputeServerless,
				Metrics: d.metrics, Sessions: sessions, SystemTables: sp,
			})
			d.mu.Lock()
			d.servers = append(d.servers, srv)
			d.mu.Unlock()
			return srv
		},
		MaxSessionsPerCluster: 8,
		Metrics:               d.metrics,
	})
	tokens := connect.TokenMap{token(admin): admin}
	for i := 0; i < numTenants; i++ {
		tokens[token(tenant(i))] = tenant(i)
	}
	service := connect.NewService(d.gw, tokens)
	service.SetTracer(tracer)
	service.SetAudit(auditLog)
	d.stopSweeper = service.StartSweeper(30*time.Second, 15*time.Minute)
	ctrl := admission.NewController(admission.Config{
		MaxConcurrent: 8, MaxQueueDepth: 16, Metrics: d.metrics,
		OnShed: func(tenant, _ string, _ time.Duration) { sp.RecordShed(tenant) },
	})
	service.SetAdmission(ctrl)

	// The server's self-healing loop: health sweep plus autoscaler tick.
	scaler := gateway.NewAutoscaler(d.gw, gateway.AutoscaleConfig{Signals: ctrl, Metrics: d.metrics})
	d.stopHealth, d.healthDone = make(chan struct{}), make(chan struct{})
	go func() {
		defer close(d.healthDone)
		t := time.NewTicker(2 * time.Second)
		defer t.Stop()
		for {
			select {
			case <-d.stopHealth:
				return
			case <-t.C:
				_, _ = d.gw.CheckHealth() // a failed sweep is retried next tick, as in the server
				scaler.Tick()
			}
		}
	}()

	inner := service.Handler()
	mux := http.NewServeMux()
	mux.Handle("/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		d.requests.Add(1)
		inner.ServeHTTP(w, r)
	}))
	mux.Handle("/metrics", d.metrics)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	d.url = "http://" + ln.Addr().String()
	for i := 0; i < numTenants; i++ {
		d.tenants = append(d.tenants, connect.Dial(d.url, token(tenant(i))))
	}
	d.admin = connect.Dial(d.url, token(admin))
	d.httpSrv = &http.Server{Handler: mux}
	d.served = make(chan struct{})
	go func() {
		defer close(d.served)
		if err := d.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Printf("# http server: %v\n", err)
		}
	}()
	return d, nil
}

// close stops every goroutine the deployment started and waits for them.
func (d *deployment) close() {
	if d.httpSrv != nil {
		_ = d.httpSrv.Close() // listener and idle connections only; nothing to flush
		<-d.served
	}
	if d.stopHealth != nil {
		close(d.stopHealth)
		<-d.healthDone
	}
	if d.stopSweeper != nil {
		d.stopSweeper()
	}
	d.spooler.Stop()
}

// server returns one of the deployment's provisioned clusters.
func (d *deployment) server() *core.Server {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.servers[0]
}

var rowSchema = types.NewSchema(
	types.Field{Name: "id", Kind: types.KindInt64},
	types.Field{Name: "owner", Kind: types.KindString},
	types.Field{Name: "cat", Kind: types.KindString},
	types.Field{Name: "k", Kind: types.KindInt64},
	types.Field{Name: "v", Kind: types.KindFloat64},
	types.Field{Name: "ssn", Kind: types.KindString},
)

// createRowTable creates a table of rowSchema holding rows, one data file
// per fileRows rows, readable by every tenant.
func (d *deployment) createRowTable(name string, rows []Row) error {
	ctx := adminCtx()
	parts := []string{name}
	if err := d.cat.CreateTable(ctx, parts, rowSchema, false, ""); err != nil {
		return fmt.Errorf("create %s: %w", name, err)
	}
	var batches []*types.Batch
	for start := 0; start < len(rows); start += fileRows {
		end := min(start+fileRows, len(rows))
		bb := types.NewBatchBuilder(rowSchema, end-start)
		for _, r := range rows[start:end] {
			bb.Column(0).AppendInt64(r.ID)
			bb.Column(1).AppendString(r.Owner)
			bb.Column(2).AppendString(r.Cat)
			bb.Column(3).AppendInt64(r.K)
			bb.Column(4).AppendFloat64(r.V)
			bb.Column(5).AppendString(r.SSN)
		}
		batches = append(batches, bb.Build())
	}
	if _, err := d.cat.AppendToTable(ctx, parts, batches); err != nil {
		return fmt.Errorf("load %s: %w", name, err)
	}
	return d.grantAll(catalog.PrivSelect, parts)
}

func (d *deployment) grantAll(priv catalog.Privilege, parts []string) error {
	for i := 0; i < numTenants; i++ {
		if err := d.cat.Grant(adminCtx(), priv, parts, tenant(i)); err != nil {
			return fmt.Errorf("grant %s on %v: %w", priv, parts, err)
		}
	}
	return nil
}

// seedShared creates what every workload reads besides its main table: the
// dims join table, the score UDF and the account groups.
func (d *deployment) seedShared(dims []Dim) error {
	ctx := adminCtx()
	schema := types.NewSchema(
		types.Field{Name: "k", Kind: types.KindInt64},
		types.Field{Name: "grp", Kind: types.KindInt64},
		types.Field{Name: "name", Kind: types.KindString},
	)
	if err := d.cat.CreateTable(ctx, []string{"dims"}, schema, false, ""); err != nil {
		return fmt.Errorf("create dims: %w", err)
	}
	bb := types.NewBatchBuilder(schema, len(dims))
	for _, x := range dims {
		bb.Column(0).AppendInt64(x.K)
		bb.Column(1).AppendInt64(x.Grp)
		bb.Column(2).AppendString(x.Name)
	}
	if _, err := d.cat.AppendToTable(ctx, []string{"dims"}, []*types.Batch{bb.Build()}); err != nil {
		return fmt.Errorf("load dims: %w", err)
	}
	if err := d.grantAll(catalog.PrivSelect, []string{"dims"}); err != nil {
		return err
	}
	params := []types.Field{{Name: "v", Kind: types.KindFloat64, Nullable: true}}
	if err := d.cat.CreateFunction(ctx, []string{"score"}, params, types.KindFloat64, scoreBody, false, ""); err != nil {
		return fmt.Errorf("create score: %w", err)
	}
	if err := d.grantAll(catalog.PrivExecute, []string{"score"}); err != nil {
		return err
	}
	for g, members := range groups {
		d.cat.CreateGroup(g, members...)
	}
	return nil
}

// governEvents attaches the paper's row filter and column mask.
func (d *deployment) governEvents(name string) error {
	ctx := adminCtx()
	parts := []string{name}
	if err := d.cat.SetRowFilter(ctx, parts, "owner = CURRENT_USER() OR IS_ACCOUNT_GROUP_MEMBER('auditors')", false); err != nil {
		return fmt.Errorf("row filter: %w", err)
	}
	if err := d.cat.SetColumnMask(ctx, parts, "ssn", "CASE WHEN IS_ACCOUNT_GROUP_MEMBER('hr') THEN ssn ELSE '***' END", false); err != nil {
		return fmt.Errorf("mask: %w", err)
	}
	return nil
}

// storedBytes sums the objects under a table's storage prefix: data files,
// deletion vectors, log entries and checkpoints.
func (d *deployment) storedBytes(name string) (int64, error) {
	cred, err := d.cat.VendCredential(adminCtx(), []string{name}, storage.ModeRead)
	if err != nil {
		return 0, err
	}
	paths, err := d.store.List(cred, cred.Prefix)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, p := range paths {
		n, err := d.store.Size(cred, p)
		if err != nil {
			return 0, err
		}
		total += int64(n)
	}
	return total, nil
}

func runSQL(c *connect.Client, stmt string) (*types.Batch, error) {
	b, err := c.ExecSQL(stmt)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", truncate(stmt), err)
	}
	return b, nil
}

func truncate(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}
