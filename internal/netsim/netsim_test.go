package netsim

import (
	"testing"

	"github.com/afrinet/observatory/internal/bgp"
	"github.com/afrinet/observatory/internal/topology"
)

// one shared world per test binary; netsim tests mutate failures and must
// restore them.
var (
	testTopo   = topology.Generate(topology.DefaultParams())
	testRouter = bgp.New(testTopo)
	testNet    = New(testTopo, testRouter, 42)
)

const kigali = topology.ASN(36924)

func cdnASN(t *testing.T) topology.ASN {
	t.Helper()
	for _, a := range testTopo.ASNs() {
		if testTopo.ASes[a].Name == "GlobalCDN-A" {
			return a
		}
	}
	t.Fatal("GlobalCDN-A missing")
	return 0
}

func TestTracerouteDeterminism(t *testing.T) {
	dst := testNet.RouterAddr(cdnASN(t), 0)
	a := testNet.Traceroute(kigali, dst)
	b := testNet.Traceroute(kigali, dst)
	if len(a.Hops) != len(b.Hops) || a.Reached != b.Reached || a.RTT != b.RTT {
		t.Fatal("traceroute is not deterministic")
	}
	for i := range a.Hops {
		if a.Hops[i].Addr != b.Hops[i].Addr || a.Hops[i].RTT != b.Hops[i].RTT {
			t.Fatalf("hop %d differs", i)
		}
	}
}

func TestTracerouteTTLsAscend(t *testing.T) {
	tr := testNet.Traceroute(kigali, testNet.RouterAddr(cdnASN(t), 0))
	for i := 1; i < len(tr.Hops); i++ {
		if tr.Hops[i].TTL != tr.Hops[i-1].TTL+1 {
			t.Fatalf("TTLs not consecutive at %d", i)
		}
	}
}

func TestTracerouteMatchesBGPPath(t *testing.T) {
	dstASN := cdnASN(t)
	tr := testNet.Traceroute(kigali, testNet.RouterAddr(dstASN, 0))
	want, ok := testRouter.Path(kigali, dstASN)
	if !ok {
		t.Fatal("no BGP path")
	}
	got := tr.ASPath()
	wantASNs := want.ASNs()
	// The traceroute's true AS sequence must be a prefix-preserving
	// subsequence of the BGP path (every traced AS in order).
	j := 0
	for _, a := range got {
		for j < len(wantASNs) && wantASNs[j] != a {
			j++
		}
		if j == len(wantASNs) {
			t.Fatalf("traced AS %d not on BGP path %v (traced %v)", a, wantASNs, got)
		}
	}
}

func TestIXPLANHopAppears(t *testing.T) {
	// Find a peering link over an African fabric and traceroute across
	// it from one endpoint to the other.
	for i := range testTopo.Links {
		l := &testTopo.Links[i]
		if l.Via == 0 || l.Kind != topology.PeerPeer {
			continue
		}
		tr := testNet.Traceroute(l.A, testNet.RouterAddr(l.B, 0))
		found := false
		for _, h := range tr.Hops {
			if h.TrueIXP == l.Via {
				found = true
				if h.Addr != 0 {
					if x, ok := testNet.IXPOf(h.Addr); !ok || x != l.Via {
						t.Fatalf("LAN hop address %v does not map back to IXP %d", h.Addr, l.Via)
					}
				}
			}
		}
		if found {
			return // one positive case suffices
		}
	}
	t.Fatal("no traceroute crossed an exchange LAN")
}

func TestOwnerOfRoundTrip(t *testing.T) {
	for _, a := range []topology.ASN{kigali, cdnASN(t)} {
		addr := testNet.HostAddr(a, 3)
		owner, ok := testNet.OwnerOf(addr)
		if !ok || owner != a {
			t.Fatalf("OwnerOf(%v) = %d,%v want %d", addr, owner, ok, a)
		}
	}
}

func TestPingConsistentWithTraceroute(t *testing.T) {
	dst := testNet.RouterAddr(cdnASN(t), 0)
	rtt, ok := testNet.Ping(kigali, dst)
	tr := testNet.Traceroute(kigali, dst)
	if ok != tr.Reached || (ok && rtt != tr.RTT) {
		t.Fatal("ping and traceroute disagree")
	}
}

func TestPathQualityBounds(t *testing.T) {
	asns := testTopo.ASNs()
	for i := 0; i < len(asns); i += 37 {
		for j := 11; j < len(asns); j += 53 {
			rtt, loss, ok := testNet.PathQuality(asns[i], asns[j])
			if !ok {
				continue
			}
			if rtt < 0 || loss < 0 || loss > 1 {
				t.Fatalf("quality out of bounds: rtt=%v loss=%v", rtt, loss)
			}
		}
	}
}

func TestRTTScalesWithDistance(t *testing.T) {
	// Kigali to a Kenyan network should be much faster than Kigali to a
	// US network.
	var ke, us topology.ASN
	for _, a := range testTopo.ASNs() {
		as := testTopo.ASes[a]
		if ke == 0 && as.Country == "KE" && as.Type == topology.ASFixedISP {
			ke = a
		}
		if us == 0 && as.Country == "US" && as.Type == topology.ASTransit && as.Tier == topology.Tier1 {
			us = a
		}
	}
	rttKE, ok1 := testNet.RTTBetween(kigali, ke)
	rttUS, ok2 := testNet.RTTBetween(kigali, us)
	if !ok1 || !ok2 {
		t.Fatal("unreachable")
	}
	if rttKE >= rttUS {
		t.Fatalf("RTT Kigali->KE (%.1f) should be < Kigali->US (%.1f)", rttKE, rttUS)
	}
}

func TestCableCutAndRestore(t *testing.T) {
	defer func() { testNet.SetCablesCut(testNet.CutCables(), false) }()
	// Baseline quality for a Nigerian eyeball to Europe.
	var ng topology.ASN
	for _, a := range testTopo.ASesIn("NG") {
		if testTopo.ASes[a].Type == topology.ASFixedISP {
			ng = a
			break
		}
	}
	var eu topology.ASN
	for _, a := range testTopo.ASesIn("DE") {
		if testTopo.ASes[a].Type == topology.ASTransit {
			eu = a
			break
		}
	}
	rttBefore, lossBefore, ok := testNet.PathQuality(ng, eu)
	if !ok {
		t.Fatal("NG->DE unreachable at baseline")
	}

	// Cut the whole west corridor.
	testNet.SetCablesCut(testTopo.Corridors()["west-africa-coastal"], true)
	if got := len(testNet.CutCables()); got == 0 {
		t.Fatal("no cables recorded as cut")
	}
	rttAfter, lossAfter, okAfter := testNet.PathQuality(ng, eu)
	degraded := !okAfter || lossAfter > lossBefore+0.01 || rttAfter > rttBefore*1.2
	if !degraded {
		t.Fatalf("corridor cut had no effect: before (%.1fms, %.2f) after (%.1fms, %.2f)",
			rttBefore, lossBefore, rttAfter, lossAfter)
	}

	testNet.SetCablesCut(testNet.CutCables(), false)
	rttRestored, lossRestored, okRestored := testNet.PathQuality(ng, eu)
	if !okRestored || rttRestored != rttBefore || lossRestored != lossBefore {
		t.Fatal("restoring every cut cable did not return to baseline")
	}
}

func TestCutCableIdempotent(t *testing.T) {
	defer func() { testNet.SetCablesCut(testNet.CutCables(), false) }()
	one := []topology.CableID{testTopo.CableIDs()[0]}
	testNet.SetCablesCut(one, true)
	testNet.SetCablesCut(one, true) // second cut is a no-op
	if len(testNet.CutCables()) != 1 {
		t.Fatal("double cut recorded twice")
	}
	testNet.SetCablesCut(one, false)
	if len(testNet.CutCables()) != 0 {
		t.Fatal("restore failed")
	}
	testNet.SetCablesCut(one, false) // restoring an intact cable is a no-op
}

func TestLANProbeRequiresFabricPresence(t *testing.T) {
	// The Kigali probe's fabric (RINEX) answers; a far-away fabric its
	// default route cannot touch does not.
	var rinex, far topology.IXPID
	for _, id := range testTopo.IXPIDs() {
		x := testTopo.IXPs[id]
		if x.Name == "RINEX" {
			rinex = id
		}
		if x.Country == "CL" {
			far = id
		}
	}
	if rinex == 0 || far == 0 {
		t.Fatal("fixture fabrics missing")
	}
	trNear := testNet.Traceroute(kigali, testTopo.IXPs[rinex].LAN.Nth(2))
	if !trNear.Reached {
		t.Fatal("RINEX LAN should answer the Kigali probe (member network)")
	}
	trFar := testNet.Traceroute(kigali, testTopo.IXPs[far].LAN.Nth(2))
	if trFar.Reached {
		t.Fatal("a Chilean fabric must not answer a Kigali default-route probe")
	}
}

func TestAddrRespondsConcentration(t *testing.T) {
	// Responsiveness concentrates in live /24s: find a mobile AS and
	// check that responding addresses cluster in a minority of /24s.
	var mob *topology.AS
	for _, a := range testTopo.ASNs() {
		as := testTopo.ASes[a]
		if as.Type == topology.ASMobileCarrier && as.Responsive > 0 {
			mob = as
			break
		}
	}
	live := 0
	total := 0
	for _, s := range mob.Prefixes[0].Subnets(24, 0) {
		total++
		respond := 0
		for i := uint64(1); i < 255; i += 16 {
			if testNet.AddrResponds(s.Nth(i)) {
				respond++
			}
		}
		if respond > 0 {
			live++
		}
	}
	if live == 0 {
		t.Skip("this mobile AS drew no live /24s in its first /20")
	}
	if float64(live)/float64(total) > 0.5 {
		t.Fatalf("mobile space too responsive: %d/%d live /24s", live, total)
	}
}

func TestTracerouteToUnknownAddress(t *testing.T) {
	tr := testNet.Traceroute(kigali, 1) // 0.0.0.1 — unrouted, not a LAN
	if tr.Reached || len(tr.Hops) != 0 {
		t.Fatal("unrouted target should produce an empty trace")
	}
}

// ASPath returns the distinct true AS sequence seen on the hops.
func (tr *Traceroute) ASPath() []topology.ASN {
	var out []topology.ASN
	for _, h := range tr.Hops {
		if h.TrueASN == 0 {
			continue
		}
		if len(out) == 0 || out[len(out)-1] != h.TrueASN {
			out = append(out, h.TrueASN)
		}
	}
	return out
}
