// Package geoloc models a commercial IP-geolocation service (the
// IPInfo-style databases the paper's Section 6 methodology relies on),
// including the region-dependent error that undermines subsea-cable
// inference in Africa: databases locate African addresses with median
// errors of hundreds of kilometers — often snapping them to the
// registration country's capital or even to the parent allocation's
// country — while European and North American addresses resolve tightly.
package geoloc

import (
	"math"
	"sync"

	"github.com/afrinet/observatory/internal/geo"
	"github.com/afrinet/observatory/internal/netx"
	"github.com/afrinet/observatory/internal/splitmix"
	"github.com/afrinet/observatory/internal/topology"
)

// Result is one lookup answer.
type Result struct {
	Addr    netx.Addr
	ASN     topology.ASN
	Country string    // claimed country (may be wrong)
	Coord   geo.Coord // claimed coordinates
	ErrorKM float64   // the database's (unknown to clients) true error
}

// DB is a geolocation database bound to a topology snapshot.
type DB struct {
	topo *topology.Topology
	seed uint64
	trie *netx.Trie[topology.ASN]
	ixps *netx.Trie[topology.IXPID]

	// memo caches Lookup answers. A database snapshot never changes, so
	// entries live for the DB's lifetime; concurrent fills are benign
	// (both goroutines compute the same deterministic Result).
	memo sync.Map // netx.Addr -> memoVal
}

// memoVal is one cached Lookup answer.
type memoVal struct {
	res Result
	ok  bool
}

// New builds the database. The seed fixes each address's error draw, so
// lookups are stable — like a real database snapshot.
func New(t *topology.Topology, seed int64) *DB {
	db := &DB{topo: t, seed: uint64(seed), trie: &netx.Trie[topology.ASN]{}, ixps: &netx.Trie[topology.IXPID]{}}
	for _, asn := range t.ASNs() {
		for _, p := range t.ASes[asn].Prefixes {
			db.trie.Insert(p, asn)
		}
	}
	for _, id := range t.IXPIDs() {
		db.ixps.Insert(t.IXPs[id].LAN, id)
	}
	return db
}

// errorProfile returns the median error (km) and mislocation probability
// for a region. African figures follow published geolocation studies;
// the gap is the paper's Section 6.2 argument.
func errorProfile(r geo.Region) (medianKM float64, wrongCountryProb float64) {
	switch r {
	case geo.Europe, geo.NorthAmerica:
		return 25, 0.01
	case geo.AsiaPacific:
		return 80, 0.04
	case geo.SouthAmerica:
		return 120, 0.05
	case geo.AfricaSouthern:
		return 150, 0.08
	default: // the rest of Africa
		return 450, 0.18
	}
}

func (db *DB) u(vals ...uint64) uint64 { return splitmix.Fold(db.seed, vals...) }

func (db *DB) f(vals ...uint64) float64 { return splitmix.Unit(db.u(vals...)) }

// Lookup geolocates an address. IXP LAN addresses geolocate to the
// exchange's country (databases know the big fabrics) but with the
// region's coordinate error. Answers are memoized — snapshots are
// immutable, and traceroute mapping asks about the same router
// interfaces over and over.
func (db *DB) Lookup(a netx.Addr) (Result, bool) {
	if v, ok := db.memo.Load(a); ok {
		m := v.(memoVal)
		return m.res, m.ok
	}
	res, ok := db.lookupUncached(a)
	db.memo.Store(a, memoVal{res: res, ok: ok})
	return res, ok
}

func (db *DB) lookupUncached(a netx.Addr) (Result, bool) {
	var trueCountry string
	var asn topology.ASN
	if x, ok := db.ixps.Lookup(a); ok {
		trueCountry = db.topo.IXPs[x].Country
	} else if owner, ok := db.trie.Lookup(a); ok {
		asn = owner
		trueCountry = db.topo.ASes[owner].Country
	} else {
		return Result{}, false
	}

	c := geo.MustLookup(trueCountry)
	medKM, wrongProb := errorProfile(c.Region)

	claimed := c
	if db.f(uint64(a), 0x11) < wrongProb {
		// Mislocated to another country — usually the regional hub or
		// the delegation's registration country; we model it as a
		// deterministic pick among the region's countries.
		peers := geo.CountriesIn(c.Region)
		claimed = peers[splitmix.Pick(db.u(uint64(a), 0x22), len(peers))]
	}

	// Exponential-ish error around the claimed hub: median medKM.
	lambda := math.Ln2 / medKM
	r := -math.Log(1-db.f(uint64(a), 0x33)+1e-12) / lambda
	if r > 2000 {
		r = 2000
	}
	theta := 2 * math.Pi * db.f(uint64(a), 0x44)
	coord := offsetKm(claimed.Hub, r, theta)

	return Result{
		Addr:    a,
		ASN:     asn,
		Country: claimed.ISO2,
		Coord:   coord,
		ErrorKM: geo.DistanceKm(c.Hub, coord),
	}, true
}

// offsetKm displaces a coordinate by dist km along bearing theta.
func offsetKm(c geo.Coord, dist, theta float64) geo.Coord {
	const kmPerDegLat = 111.0
	dLat := dist * math.Cos(theta) / kmPerDegLat
	kmPerDegLng := kmPerDegLat * math.Cos(c.Lat*math.Pi/180)
	if kmPerDegLng < 1 {
		kmPerDegLng = 1
	}
	dLng := dist * math.Sin(theta) / kmPerDegLng
	out := geo.Coord{Lat: c.Lat + dLat, Lng: c.Lng + dLng}
	if out.Lat > 89 {
		out.Lat = 89
	}
	if out.Lat < -89 {
		out.Lat = -89
	}
	if out.Lng > 180 {
		out.Lng -= 360
	}
	if out.Lng < -180 {
		out.Lng += 360
	}
	return out
}
