// Quickstart: generate the synthetic African Internet, run a traceroute
// from the Kigali pilot probe toward a content network, detect the
// exchanges it crosses, and inspect the DNS dependency of a Rwandan
// client — the observatory's basic measurement loop in ~60 lines.
package main

import (
	"fmt"

	obs "github.com/afrinet/observatory"
)

func main() {
	stack := obs.NewStack(obs.Config{Seed: 42, Year: 2025})
	fmt.Printf("world: %d ASes, %d IXPs, %d cables\n",
		len(stack.Topology.ASNs()), len(stack.Topology.IXPIDs()), len(stack.Topology.CableIDs()))

	// Traceroute from the Kigali probe (AS36924) to GlobalCDN-A (AS15169).
	const kigali = obs.ASN(36924)
	dst := stack.Net.RouterAddr(15169, 0)
	tr := stack.Net.Traceroute(kigali, dst)
	fmt.Printf("\ntraceroute AS%d -> %s (reached=%v, rtt=%.1fms):\n", kigali, dst, tr.Reached, tr.RTT)
	for _, h := range tr.Hops {
		if h.Addr == 0 {
			fmt.Printf("  %2d  *\n", h.TTL)
			continue
		}
		fmt.Printf("  %2d  %-15s  %6.1f ms\n", h.TTL, h.Addr, h.RTT)
	}

	// Detect exchange crossings with directory data only.
	origin := func(a obs.Addr) (obs.ASN, bool) {
		owner, ok := stack.Net.OwnerOf(a)
		return owner, ok
	}
	for _, cr := range stack.Detector.Detect(tr, origin) {
		fmt.Printf("crossed exchange: %s (TTL %d, strong=%v)\n", cr.Name, cr.HopTTL, cr.Strong)
	}

	// Where does a Rwandan client's DNS actually run?
	r := stack.DNS.AssignmentFor(kigali)
	fmt.Printf("\nAS%d recursive resolver: %s", kigali, r.Kind)
	if r.Country != "" {
		fmt.Printf(" (hosted in %s)", r.Country)
	}
	fmt.Println()

	// And where is Rwandan content served from?
	ls := stack.Web.MeasureLocality("RW")
	fmt.Printf("content served from inside Africa for RW clients: %.0f%% of top sites\n", 100*ls.Local)
}
