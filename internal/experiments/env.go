// Package experiments contains one driver per table and figure of the
// paper's evaluation, shared by cmd/repro (human-readable regeneration)
// and the benchmark harness (bench_test.go). Each driver is a pure
// function of the experiment environment, so results are identical
// run-to-run for a fixed seed.
package experiments

import (
	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/content"
	"github.com/afrinet/observatory/internal/dnssim"
	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/geoloc"
	"github.com/afrinet/observatory/internal/ixp"
	"github.com/afrinet/observatory/internal/netsim"
	"github.com/afrinet/observatory/internal/registry"
	"github.com/afrinet/observatory/internal/topology"
)

// Env bundles the simulated stack the drivers run against.
type Env struct {
	Seed     int64
	Topo     *topology.Topology
	Router   *bgp.Router
	Net      *netsim.Net
	Table    *bgp.RoutedTable
	DNS      *dnssim.System
	Web      *content.System
	GeoDB    *geoloc.DB
	Dir      []registry.IXPRecord
	Detector *ixp.Detector
}

// NewEnv builds the full stack for a seed and snapshot year.
func NewEnv(seed int64, year int) *Env {
	t := topology.Generate(topology.Params{Seed: seed, Year: year})
	r := bgp.New(t)
	n := netsim.New(t, r, seed)
	dir := registry.IXPDirectory(t)
	return &Env{
		Seed:     seed,
		Topo:     t,
		Router:   r,
		Net:      n,
		Table:    bgp.BuildRoutedTable(t),
		DNS:      dnssim.New(n, seed),
		Web:      content.New(n, seed),
		GeoDB:    geoloc.New(t, seed),
		Dir:      dir,
		Detector: ixp.NewDetector(dir),
	}
}

// observe maps a traceroute's responding hops with measurement-grade
// data only: the routed table for origin ASNs, the exchange directory
// for LAN hops, and geolocation for countries. Drivers analyze this
// view, never the simulator's ground-truth annotations.
func observe(env *Env, tr netsim.Traceroute) tracerouteView {
	var tv tracerouteView
	for _, h := range tr.Hops {
		if h.Addr == 0 {
			continue
		}
		var oh observedHop
		if loc, ok := env.GeoDB.Lookup(h.Addr); ok {
			if c, okc := geo.Lookup(loc.Country); okc {
				oh.africa = c.Region.IsAfrica()
			}
		}
		if asn, ok := env.Table.Origin(h.Addr); ok {
			oh.asn = asn
		} else if _, isLAN := env.Net.IXPOf(h.Addr); isLAN {
			oh.viaIXP = true
		}
		tv.hops = append(tv.hops, oh)
	}
	return tv
}
