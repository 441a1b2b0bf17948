package main

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
)

// Input shape. The numbers are documented in README.md; every workload
// derives its tables and operation streams from the seed alone.
const (
	numTenants  = 8
	fileRows    = 4096 // rows per seeded data file
	eventFiles  = 49   // events: 49 x 4096 = 200,704 rows
	ledgerFiles = 25   // ledger: 25 x 4096 = 102,400 seed rows
	scratchRows = fileRows
	dimRows     = 1000
	dimGroups   = 100 // join selects one group: 10 of the 1,000 dims rows
	numCats     = 16
	udfRange    = 4096
	insertRows  = 20
	updateRange = 10
	maintEvery  = 200 // OPTIMIZE after every 200 writer statements

	auditor = "user-0" // member of auditors: sees every row
	hrUser  = "user-1" // member of hr: sees ssn unmasked
	admin   = "admin"
)

// classes is the fixed rotation every reader walks through.
var classes = []string{"point", "scan", "agg", "join", "udf"}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func tenant(i int) string { return "user-" + strconv.Itoa(i) }

// Row is one row of events, events_twin, ledger and the scratch tables.
type Row struct {
	ID    int64
	Owner string
	Cat   string
	K     int64
	V     float64
	SSN   string
}

func genRow(rng *rand.Rand, id int64) Row {
	return Row{
		ID:    id,
		Owner: tenant(rng.Intn(numTenants)),
		Cat:   fmt.Sprintf("c%02d", rng.Intn(numCats)),
		K:     rng.Int63n(dimRows),
		// Two decimals keep every value exact in a SQL literal.
		V:   math.Round(rng.Float64()*100000) / 100,
		SSN: fmt.Sprintf("%03d-%02d-%04d", rng.Intn(1000), rng.Intn(100), rng.Intn(10000)),
	}
}

func genRows(rng *rand.Rand, n int) []Row {
	rows := make([]Row, n)
	for i := range rows {
		rows[i] = genRow(rng, int64(i))
	}
	return rows
}

// Dim is one row of the dims join table.
type Dim struct {
	K    int64
	Grp  int64
	Name string
}

func genDims() []Dim {
	d := make([]Dim, dimRows)
	for i := range d {
		d[i] = Dim{K: int64(i), Grp: int64(i % dimGroups), Name: fmt.Sprintf("d%03d", i)}
	}
	return d
}

// score is the catalog UDF's rule, written out independently of PyLite. The
// conversion stops the compiler fusing the multiply-add, which the
// interpreter does not do either.
func score(v float64) float64 { return float64(v*0.9) + 1 }

const scoreBody = "return v * 0.9 + 1"

// Read is one read query as issued by a tenant.
type Read struct {
	Class  string
	Tenant string
	Param  int64 // id for point/udf, threshold for scan, group for join
}

// readParam draws the class parameter for a table whose live ids lie in
// [0, maxID).
func readParam(rng *rand.Rand, class string, maxID int64) int64 {
	switch class {
	case "point":
		return rng.Int63n(maxID)
	case "scan":
		// v is uniform on [0, 1000): v > 880..920 keeps about 10% of rows.
		return 880 + rng.Int63n(41)
	case "join":
		return rng.Int63n(dimGroups)
	case "udf":
		return rng.Int63n(maxID - udfRange)
	}
	return 0
}

// querySQL renders a read against table. With inline set, the tenant's
// policy is written into the query by hand (the ungoverned twin); otherwise
// the catalog's row filter and mask apply it.
func querySQL(r Read, table string, inline bool) string {
	var conds []string
	ssn := "ssn"
	if inline {
		if r.Tenant != auditor {
			conds = append(conds, "owner = '"+r.Tenant+"'")
		}
		if r.Tenant != hrUser {
			ssn = "'***' AS ssn"
		}
	}
	where := func(extra ...string) string {
		all := append(extra, conds...)
		if len(all) == 0 {
			return ""
		}
		return " WHERE " + strings.Join(all, " AND ")
	}
	p := r.Param
	switch r.Class {
	case "point":
		return fmt.Sprintf("SELECT id, owner, cat, v, %s FROM %s%s", ssn, table, where(fmt.Sprintf("id = %d", p)))
	case "scan":
		return fmt.Sprintf("SELECT id, v, %s FROM %s%s", ssn, table, where(fmt.Sprintf("v > %d", p)))
	case "agg":
		return fmt.Sprintf("SELECT cat, COUNT(*) AS n, SUM(v) AS s FROM %s%s GROUP BY cat", table, where())
	case "join":
		for i, c := range conds {
			conds[i] = "e." + c
		}
		return fmt.Sprintf("SELECT e.id, e.v, d.name FROM %s e JOIN dims d ON e.k = d.k%s", table, where(fmt.Sprintf("d.grp = %d", p)))
	case "udf":
		return fmt.Sprintf("SELECT id, score(v) AS s FROM %s%s", table, where(fmt.Sprintf("id >= %d", p), fmt.Sprintf("id < %d", p+udfRange)))
	}
	panic("unknown class " + r.Class)
}

// Write is one statement of a writer's fixed sequence.
type Write struct {
	Kind string // insert, delete, update, optimize
	Rows []Row  // insert
	ID   int64  // delete: id; update: first id of the range
}

// genWrites draws n writer statements for a table seeded with ids
// [0, seedRows): inserts take fresh ids, deletes and updates hit any id ever
// issued, and OPTIMIZE follows every maintEvery statements. VACUUM is not in
// the sequence: run beside a reader it deletes files the reader's snapshot
// still lists (see CHANGES.md), so it runs once after the readers stop.
func genWrites(rng *rand.Rand, n int, seedRows int64) []Write {
	next := seedRows
	var ws []Write
	for dml := 0; len(ws) < n; dml++ {
		switch dml % 3 {
		case 0:
			rows := make([]Row, insertRows)
			for i := range rows {
				rows[i] = genRow(rng, next)
				next++
			}
			ws = append(ws, Write{Kind: "insert", Rows: rows})
		case 1:
			ws = append(ws, Write{Kind: "delete", ID: rng.Int63n(next)})
		case 2:
			ws = append(ws, Write{Kind: "update", ID: rng.Int63n(next - updateRange)})
		}
		if (dml+1)%maintEvery == 0 {
			ws = append(ws, Write{Kind: "optimize"})
		}
	}
	return ws[:n]
}

func writeSQL(w Write, table string) string {
	switch w.Kind {
	case "insert":
		var b strings.Builder
		b.WriteString("INSERT INTO " + table + " VALUES ")
		for i, r := range w.Rows {
			if i > 0 {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%s', '%s', %d, %s, '%s')", r.ID, r.Owner, r.Cat, r.K,
				strconv.FormatFloat(r.V, 'f', 2, 64), r.SSN)
		}
		return b.String()
	case "delete":
		return fmt.Sprintf("DELETE FROM %s WHERE id = %d", table, w.ID)
	case "update":
		return fmt.Sprintf("UPDATE %s SET v = v + 1 WHERE id >= %d AND id < %d", table, w.ID, w.ID+updateRange)
	case "optimize":
		return "OPTIMIZE " + table
	}
	panic("unknown write " + w.Kind)
}
