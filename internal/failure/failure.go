// Package failure holds the server-component reliability data of
// Table 6 and the crash-injection helpers behind the §5.6 experiments.
// The quantitative entries reproduce the paper's citations ([8, 37]);
// they are reference data, not simulator measurements.
package failure

import (
	"repro/internal/fabric"
	"repro/internal/sim"
)

// Recovery timing from Fig 16: a restarted Memcached takes ~1 s to
// bootstrap and ~1.25 s more to rebuild metadata and hash tables.
const (
	BootstrapTime = 1 * sim.Second
	RebuildTime   = 1250 * sim.Millisecond
)

// Component is one row of Table 6.
type Component struct {
	Name        string
	AFRPercent  float64 // annualized failure rate
	MTTFHours   float64 // mean time to failure
	Reliability string
}

// Table6 reproduces the paper's failure-rate table: NICs fail an order
// of magnitude less often than the OS or DRAM, and keep DMA access to
// memory across OS failures — the premise of RedN's availability story.
var Table6 = []Component{
	{Name: "OS", AFRPercent: 41.9, MTTFHours: 20906, Reliability: "99%"},
	{Name: "DRAM", AFRPercent: 39.5, MTTFHours: 22177, Reliability: "99%"},
	{Name: "NIC", AFRPercent: 1.00, MTTFHours: 876000, Reliability: "99.99%"},
	{Name: "NVM", AFRPercent: 1.00, MTTFHours: 2000000, Reliability: "99.99%"},
}

// Kind selects a failure mode.
type Kind int

// Failure kinds of §5.6.
const (
	// ProcessCrash kills the serving process; the OS detects and
	// restarts it immediately.
	ProcessCrash Kind = iota
	// OSPanic freezes the whole host (sysctl-induced kernel panic).
	// Simpler for RedN than a process crash: nothing frees the RDMA
	// resources, so the NIC continues unconditionally.
	OSPanic
)

func (k Kind) String() string {
	if k == ProcessCrash {
		return "process-crash"
	}
	return "os-panic"
}

// NodeCrash describes a §5.6 failure of one serving node, independent
// of what that node serves: the sharded service and the Fig 16
// Memcached both crash through it, flipping their own host-side
// service flags from OnDown and OnUp.
//
// ProcessCrash kills the serving process: host-side service stops, and
// unless a hull parent owns the RDMA resources (the paper's fork
// trick) the OS reclaims them, freezing every NIC queue. The OS
// restarts the process immediately; after BootstrapTime the host is
// back and after RebuildTime more the rebuilt service (and, without a
// hull parent, the re-created RDMA resources) is available again —
// then OnUp fires.
//
// OSPanic freezes the whole host: CPU service never returns within the
// experiment window, but nothing frees the RDMA resources, so the NIC
// keeps executing pre-armed chains unconditionally — the Table 6
// availability premise. OnUp never fires.
type NodeCrash struct {
	Node       *fabric.Node
	Kind       Kind
	HullParent bool
	// OnDown and OnUp bracket host-side service loss; either may be nil.
	OnDown, OnUp func()
}

// InjectAt schedules the crash at absolute virtual time t.
func (c NodeCrash) InjectAt(eng *sim.Engine, t sim.Time) {
	eng.At(t, func() {
		c.Node.CPU.Crash()
		if c.OnDown != nil {
			c.OnDown()
		}
		switch c.Kind {
		case ProcessCrash:
			if !c.HullParent {
				c.Node.Dev.Freeze()
			}
			eng.After(BootstrapTime, func() {
				c.Node.CPU.Restart()
				eng.After(RebuildTime, func() {
					if !c.HullParent {
						c.Node.Dev.Unfreeze()
					}
					if c.OnUp != nil {
						c.OnUp()
					}
				})
			})
		case OSPanic:
			// Kernel gone: no restart in-window, NIC serves on.
		}
	})
}
