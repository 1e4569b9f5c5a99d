// Package experiments regenerates every table and figure of the
// paper's evaluation (§5) on the simulated testbed. Each experiment
// returns a Result whose rows mirror the paper's presentation; the
// cmd/redn-bench binary and the top-level Go benchmarks drive them.
package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/rnic"
	"repro/internal/sim"
	"repro/internal/wqe"
)

// Row is one line of an experiment's output.
type Row struct {
	Label string
	Cells []string
}

// Result is a regenerated table or figure.
type Result struct {
	ID     string // "fig10", "table3", ...
	Title  string
	Header []string
	Rows   []Row
	Notes  []string

	// Metrics exposes headline numbers for benchmarks and tests,
	// keyed by a short name (e.g. "redn_64B_us").
	Metrics map[string]float64
}

func (r *Result) metric(name string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]float64)
	}
	r.Metrics[name] = v
}

// Print renders the result as an aligned text table.
func (r *Result) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header)+1)
	rows := append([]Row{{Label: "", Cells: r.Header}}, r.Rows...)
	for _, row := range rows {
		if len(row.Label) > widths[0] {
			widths[0] = len(row.Label)
		}
		for i, c := range row.Cells {
			if i+1 < len(widths) && len(c) > widths[i+1] {
				widths[i+1] = len(c)
			}
		}
	}
	line := func(row Row) {
		fmt.Fprintf(w, "  %-*s", widths[0], row.Label)
		for i, c := range row.Cells {
			wd := 0
			if i+1 < len(widths) {
				wd = widths[i+1]
			}
			fmt.Fprintf(w, "  %*s", wd, c)
		}
		fmt.Fprintln(w)
	}
	line(Row{Label: "", Cells: r.Header})
	fmt.Fprintf(w, "  %s\n", strings.Repeat("-", sum(widths)+2*len(widths)))
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
	fmt.Fprintln(w)
}

func sum(xs []int) int {
	t := 0
	for _, x := range xs {
		t += x
	}
	return t
}

// us formats a virtual duration in microseconds.
func us(t sim.Time) string { return fmt.Sprintf("%.2f", t.Micros()) }

// mops formats an ops/sec rate in millions.
func mops(r float64) string { return fmt.Sprintf("%.2f", r/1e6) }

// kops formats an ops/sec rate in thousands.
func kops(r float64) string { return fmt.Sprintf("%.0fK", r/1e3) }

// catalog lists every experiment in IDs order: the paper's tables and
// figures, then the beyond-paper scenarios.
var catalog = [...]struct {
	id  string
	run func() *Result
}{
	{"table1", Table1}, {"table2", Table2}, {"table3", Table3},
	{"table4", Table4}, {"table5", Table5}, {"table6", Table6},
	{"fig7", Fig7}, {"fig8", Fig8}, {"fig10", Fig10}, {"fig11", Fig11},
	{"fig13", Fig13}, {"fig14", Fig14}, {"fig15", Fig15}, {"fig16", Fig16},
	{"scaleout", ScaleOut}, {"hotkey", HotKey}, {"failover", Failover},
	{"mixed", MixedWorkload}, {"churn", Churn}, {"repair", Repair},
	{"overload", Overload}, {"resharding", Resharding}, {"sentinel", Sentinel},
}

// ByID runs one experiment by its identifier (any case), or nil if
// unknown.
func ByID(id string) *Result {
	id = strings.ToLower(id)
	for _, e := range catalog {
		if e.id == id {
			return e.run()
		}
	}
	return nil
}

// IDs lists the available experiment identifiers.
func IDs() []string {
	ids := make([]string, len(catalog))
	for i, e := range catalog {
		ids[i] = e.id
	}
	return ids
}

// ---- shared harness helpers ----

// pair builds the canonical two-node testbed (client + server).
func pair(ports int) (*fabric.Cluster, *fabric.Node, *fabric.Node) {
	c := fabric.NewCluster()
	cfgC := fabric.DefaultNodeConfig("client")
	cfgS := fabric.DefaultNodeConfig("server")
	cfgC.Ports = ports
	cfgS.Ports = ports
	return c, c.AddNode(cfgC), c.AddNode(cfgS)
}

// rednClient wraps a client connection to a LookupOffload server for
// issuing gets and timing responses.
type rednClient struct {
	clu   *fabric.Cluster
	cliQP *rnic.QP
	o     *core.LookupOffload
	buf   uint64
	resp  uint64
	hitAt sim.Time
	armed bool
	onHit func(sim.Time)
}

func newRednClient(clu *fabric.Cluster, cli, srv *fabric.Node, o *core.LookupOffload, cliQP *rnic.QP) *rednClient {
	c := &rednClient{clu: clu, cliQP: cliQP, o: o,
		buf:  cli.Mem.Alloc(128, 8),
		resp: cli.Mem.Alloc(1<<17, 64),
	}
	record := func(e rnic.CQE) {
		if e.Op == wqe.OpWrite && c.onHit != nil {
			fn := c.onHit
			c.onHit = nil
			fn(e.At)
		}
	}
	o.Trig.SendCQ().OnDeliver(record)
	if o.Resp2 != nil {
		o.Resp2.SendCQ().OnDeliver(record)
	}
	return c
}

// get issues one RedN get and calls done(latency) on the response.
func (c *rednClient) get(key, valLen uint64, done func(sim.Time)) {
	cliMem := c.cliQP.Device().Mem()
	payload := c.o.TriggerPayload(key, valLen, c.resp)
	cliMem.Write(c.buf, payload)
	start := c.clu.Eng.Now()
	c.onHit = func(at sim.Time) {
		if done != nil {
			done(at - start)
		}
	}
	c.cliQP.PostSend(wqe.WQE{Op: wqe.OpSend, Src: c.buf, Len: uint64(len(payload)),
		Flags: wqe.FlagSignaled})
	c.cliQP.RingSQ()
}
