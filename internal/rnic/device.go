package rnic

import (
	"fmt"
	"strings"

	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Port groups the per-port execution resources: the processing units
// WQs are pinned to, the shared on-demand WQE fetch unit used by
// managed queues, and the wire.
type Port struct {
	dev       *Device
	idx       int
	pus       []*sim.Resource
	fetchUnit *sim.Resource
	link      *sim.Bandwidth
	nextPU    int
}

// PUs returns the port's processing units.
func (p *Port) PUs() []*sim.Resource { return p.pus }

// FetchUnit returns the port's serialized managed-fetch unit.
func (p *Port) FetchUnit() *sim.Resource { return p.fetchUnit }

// Device is one simulated RNIC attached to a node's memory.
type Device struct {
	eng  *sim.Engine
	mem  *mem.Memory
	prof Profile

	ports []*Port

	qps []*QP
	cqs []*CQ

	pcie       *sim.Bandwidth
	atomicUnit *sim.Resource

	frozen bool // OS/process failure model: true only if teardown ran

	// freeRuns is the free list of per-WR run records (run.go);
	// runsMade counts the records ever created for it.
	freeRuns []*wrRun
	runsMade int

	// backlogged lists QPs with receiver-not-ready arrivals queued —
	// the congestion the BacklogWatermark ECN signal reports. Kept as
	// an incrementally maintained set so the watermark never scans the
	// full QP table on a completion.
	backlogged []*QP

	label  string            // node name for telemetry; defaults to the profile name
	tracer *telemetry.Tracer // nil = tracing disabled

	// profiler attributes every grant on this device's resources to
	// (op class, resource) cells; nil = profiling disabled. resNames
	// caches relabeled resource names so the per-grant hot path never
	// re-derives (and never allocates) them.
	profiler *telemetry.Profiler
	resNames map[*sim.Resource]string
}

// New creates a device with the given profile and port count (1 or 2 on
// ConnectX-5), attached to m.
func New(eng *sim.Engine, m *mem.Memory, prof Profile, numPorts int) *Device {
	if numPorts < 1 {
		numPorts = 1
	}
	d := &Device{
		eng:        eng,
		mem:        m,
		prof:       prof,
		label:      prof.Name,
		pcie:       sim.NewBandwidth(eng, prof.Name+"/pcie", prof.PCIeBytesPerSec),
		atomicUnit: sim.NewResource(eng, prof.Name+"/atomic-unit"),
	}
	for i := 0; i < numPorts; i++ {
		p := &Port{dev: d, idx: i}
		for j := 0; j < prof.PUsPerPort; j++ {
			p.pus = append(p.pus, sim.NewResource(eng, fmt.Sprintf("%s/port%d/pu%d", prof.Name, i, j)))
		}
		p.fetchUnit = sim.NewResource(eng, fmt.Sprintf("%s/port%d/fetch", prof.Name, i))
		p.link = sim.NewBandwidth(eng, fmt.Sprintf("%s/port%d/link", prof.Name, i), prof.LinkBytesPerSec)
		d.ports = append(d.ports, p)
	}
	return d
}

// Engine returns the simulation engine.
func (d *Device) Engine() *sim.Engine { return d.eng }

// Mem returns the attached host memory.
func (d *Device) Mem() *mem.Memory { return d.mem }

// Profile returns the device profile.
func (d *Device) Profile() Profile { return d.prof }

// Ports returns the device's ports.
func (d *Device) Ports() []*Port { return d.ports }

// PCIe returns the shared host-interface bandwidth resource.
func (d *Device) PCIe() *sim.Bandwidth { return d.pcie }

// NewCQ creates a completion queue.
func (d *Device) NewCQ() *CQ {
	c := &CQ{dev: d, cqn: uint32(len(d.cqs))}
	c.advanceFn = c.advance
	d.cqs = append(d.cqs, c)
	return c
}

// CQByNum resolves a CQN (as referenced by WAIT verbs).
func (d *Device) CQByNum(cqn uint32) *CQ {
	if int(cqn) >= len(d.cqs) {
		return nil
	}
	return d.cqs[cqn]
}

// QPByNum resolves a QPN (as referenced by ENABLE verbs).
func (d *Device) QPByNum(qpn uint32) *QP {
	if int(qpn) >= len(d.qps) {
		return nil
	}
	return d.qps[qpn]
}

// NewQP creates a queue pair. Ring buffers are allocated from host
// memory so that their WQEs are addressable by RDMA verbs; callers
// register them as a code region for remote access when needed.
func (d *Device) NewQP(cfg QPConfig) *QP {
	if cfg.SQDepth <= 0 {
		cfg.SQDepth = 64
	}
	if cfg.RQDepth <= 0 {
		cfg.RQDepth = 64
	}
	if cfg.Port < 0 || cfg.Port >= len(d.ports) {
		cfg.Port = 0
	}
	port := d.ports[cfg.Port]
	pu := cfg.PU
	if pu < 0 || pu >= len(port.pus) {
		pu = port.nextPU
		port.nextPU = (port.nextPU + 1) % len(port.pus)
	}
	q := &QP{
		dev:  d,
		qpn:  uint32(len(d.qps)),
		port: port,
		pu:   port.pus[pu],
		scq:  d.NewCQ(),
		rcq:  d.NewCQ(),
		ctx:  &unattributed,
	}
	sqBase := d.mem.Alloc(uint64(cfg.SQDepth)*64, 64)
	rqBase := d.mem.Alloc(uint64(cfg.RQDepth)*64, 64)
	w := &WorkQueue{qp: q, base: sqBase, capacity: uint64(cfg.SQDepth), managed: cfg.Managed,
		lastFetchDone: coldFetch}
	w.stepFn, w.advanceFn, w.kickFn, w.hostEnableFn = w.step, w.advance, w.kick, w.hostEnable
	q.sq = w
	q.rq = &recvQueue{qp: q, base: rqBase, capacity: uint64(cfg.RQDepth), ctxs: make([]*telemetry.OpContext, cfg.RQDepth)}
	d.qps = append(d.qps, q)
	return q
}

// coldFetch is a fresh queue's last prefetch delivery: far enough in
// the past that its first fetch pays the cold FetchLatency.
const coldFetch sim.Time = -(1 << 60)

// NewLoopbackQP creates a QP connected to a sibling QP on the same
// device with zero wire latency. RedN's self-modifying chains use
// loopback QPs for verbs that target the server's own memory (reading
// buckets, CAS-ing posted WQEs).
func (d *Device) NewLoopbackQP(cfg QPConfig) *QP {
	a := d.NewQP(cfg)
	peerCfg := cfg
	peerCfg.Managed = false
	b := d.NewQP(peerCfg)
	a.Connect(b, 0)
	return a
}

// Freeze models losing the device's host resources (the OS reclaiming
// queues after a process crash without a hull parent): all queues stop.
func (d *Device) Freeze() { d.frozen = true }

// Unfreeze restores service after the restarted process has recreated
// its RDMA resources: every queue resumes where the freeze stopped it.
// A host that re-establishes its connections resets their QPs
// (QP.Reset) rather than creating new ones, so the QP table stays the
// size it was.
func (d *Device) Unfreeze() {
	d.frozen = false
	for _, q := range d.qps {
		q.sq.kick()
		if q.pendingArrivals.Len() > 0 {
			q.consumeRecv(q.popArrival(), true)
		}
	}
}

// Frozen reports whether the device has been frozen.
func (d *Device) Frozen() bool { return d.frozen }

// SetLabel names the device for telemetry (the owning node's name);
// WR spans and utilization entries carry it instead of the profile name.
func (d *Device) SetLabel(label string) { d.label = label }

// Label returns the telemetry name.
func (d *Device) Label() string { return d.label }

// SetTracer attaches a tracer; nil disables WR-span emission.
func (d *Device) SetTracer(tr *telemetry.Tracer) { d.tracer = tr }

// Tracer returns the attached tracer (nil when disabled).
func (d *Device) Tracer() *telemetry.Tracer { return d.tracer }

// SetProfiler attaches a virtual-time profiler: every subsequent
// grant on this device's resources is attributed to it. Attach before
// traffic starts so the folded-stack totals equal resource busy time.
// nil disables (the per-grant hook is two loads and a branch).
func (d *Device) SetProfiler(p *telemetry.Profiler) { d.profiler = p }

// Profiler returns the attached profiler (nil when disabled).
func (d *Device) Profiler() *telemetry.Profiler { return d.profiler }

// resName returns the relabeled name of one of this device's
// resources, cached so grant hooks never allocate.
func (d *Device) resName(r *sim.Resource) string {
	if n, ok := d.resNames[r]; ok {
		return n
	}
	if d.resNames == nil {
		d.resNames = make(map[*sim.Resource]string)
	}
	n := d.relabel(r.Name())
	d.resNames[r] = n
	return n
}

// relabel swaps the profile-name prefix of a resource name for the
// device label: "cx5/port0/pu1" -> "shard3/port0/pu1".
func (d *Device) relabel(name string) string {
	return d.label + "/" + strings.TrimPrefix(name, d.prof.Name+"/")
}

// ResourceUtils appends one utilization entry per serialized unit
// (every PU, each port's fetch unit and link, PCIe, the atomic unit)
// over [0, until], named under the device label.
func (d *Device) ResourceUtils(out []telemetry.ResourceUtil, until sim.Time) []telemetry.ResourceUtil {
	add := func(r *sim.Resource) {
		out = append(out, telemetry.ResourceUtil{
			Name:   d.relabel(r.Name()),
			Util:   r.Utilization(until),
			Busy:   r.Busy(),
			Grants: r.Grants(),
		})
	}
	for _, p := range d.ports {
		for _, pu := range p.pus {
			add(pu)
		}
		add(p.fetchUnit)
		add(&p.link.Resource)
	}
	add(&d.pcie.Resource)
	add(d.atomicUnit)
	return out
}

// BacklogWatermark reports the device's worst queueing delay at now —
// the ECN-like congestion signal the completion path stamps into
// CQEs. It is the furthest reservation horizon across the device's
// serialized execution units — every PU, each port's managed-fetch
// unit (where concurrent offloaded chains actually convoy), and the
// atomic unit (where write claim CASes do) — together with the
// head-of-line age of any receiver-not-ready arrival still queued on
// a QP. Zero means new work would start immediately; values past the
// miss timeout mean completions are already arriving too late to
// count.
func (d *Device) BacklogWatermark(now sim.Time) sim.Time {
	var max sim.Time
	horizon := func(r *sim.Resource) {
		if b := r.NextFree() - now; b > max {
			max = b
		}
	}
	for _, p := range d.ports {
		for _, pu := range p.pus {
			horizon(pu)
		}
		horizon(p.fetchUnit)
	}
	horizon(d.atomicUnit)
	for _, q := range d.backlogged {
		if b := now - q.pendingArrivals.Peek().queuedAt; b > max {
			max = b
		}
	}
	return max
}

// Utilization summarizes busy fractions of the device's resources over
// [0, until], for bottleneck attribution (Table 4).
func (d *Device) Utilization(until sim.Time) map[string]float64 {
	out := make(map[string]float64)
	var puBusy sim.Time
	var puCount int
	for _, p := range d.ports {
		for _, pu := range p.pus {
			puBusy += pu.Busy()
			puCount++
		}
		out[fmt.Sprintf("port%d/fetch", p.idx)] = p.fetchUnit.Utilization(until)
		out[fmt.Sprintf("port%d/link", p.idx)] = p.link.Utilization(until)
	}
	if puCount > 0 && until > 0 {
		out["pu"] = float64(puBusy) / float64(until) / float64(puCount)
	}
	out["pcie"] = d.pcie.Utilization(until)
	return out
}
