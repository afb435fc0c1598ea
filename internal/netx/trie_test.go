package netx

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestTrieBasicLPM(t *testing.T) {
	var tr Trie[string]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), "eight")
	tr.Insert(MustParsePrefix("10.1.0.0/16"), "sixteen")
	tr.Insert(MustParsePrefix("10.1.2.0/24"), "twentyfour")

	cases := []struct {
		addr string
		want string
		ok   bool
	}{
		{"10.1.2.3", "twentyfour", true},
		{"10.1.3.1", "sixteen", true},
		{"10.2.0.1", "eight", true},
		{"11.0.0.1", "", false},
	}
	for _, c := range cases {
		got, ok := tr.Lookup(MustParseAddr(c.addr))
		if ok != c.ok || got != c.want {
			t.Errorf("Lookup(%s) = %q,%v want %q,%v", c.addr, got, ok, c.want, c.ok)
		}
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d", tr.Len())
	}
}

func TestTrieDefaultRoute(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("0.0.0.0/0"), 42)
	if v, ok := tr.Lookup(MustParseAddr("200.200.200.200")); !ok || v != 42 {
		t.Fatal("default route not matched")
	}
}

func TestTrieReplace(t *testing.T) {
	var tr Trie[int]
	p := MustParsePrefix("10.0.0.0/8")
	tr.Insert(p, 1)
	tr.Insert(p, 2)
	if tr.Len() != 1 {
		t.Fatalf("Len = %d after replace", tr.Len())
	}
	if v, _ := tr.Lookup(MustParseAddr("10.0.0.1")); v != 2 {
		t.Fatalf("value = %d, want 2", v)
	}
}

func TestTrieLookupPrefix(t *testing.T) {
	var tr Trie[int]
	tr.Insert(MustParsePrefix("10.0.0.0/8"), 1)
	if v, ok := tr.LookupPrefix(MustParsePrefix("10.0.0.0/8")); !ok || v != 1 {
		t.Fatal("exact prefix not found")
	}
	if _, ok := tr.LookupPrefix(MustParsePrefix("10.0.0.0/9")); ok {
		t.Fatal("longer prefix should not match exactly")
	}
	if _, ok := tr.LookupPrefix(MustParsePrefix("11.0.0.0/8")); ok {
		t.Fatal("absent prefix matched")
	}
}

func TestTrieWalkOrder(t *testing.T) {
	var tr Trie[int]
	ps := []string{"10.0.0.0/8", "9.0.0.0/8", "10.128.0.0/9", "11.0.0.0/16"}
	for i, s := range ps {
		tr.Insert(MustParsePrefix(s), i)
	}
	var got []Addr
	tr.Walk(func(p Prefix, _ int) bool {
		got = append(got, p.Base())
		return true
	})
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("walk out of order: %v", got)
		}
	}
	if len(got) != len(ps) {
		t.Fatalf("walk visited %d, want %d", len(got), len(ps))
	}
	// Early stop.
	count := 0
	tr.Walk(func(Prefix, int) bool {
		count++
		return count < 2
	})
	if count != 2 {
		t.Fatalf("early stop visited %d", count)
	}
}

// TestTrieMatchesBruteForce cross-checks longest-prefix match against a
// linear scan on random prefix sets.
func TestTrieMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	type entry struct {
		p Prefix
		v int
	}
	for round := 0; round < 20; round++ {
		var tr Trie[int]
		var entries []entry
		seen := map[Prefix]bool{}
		for i := 0; i < 50; i++ {
			p := MakePrefix(Addr(rng.Uint32()), 4+rng.Intn(25))
			if seen[p] {
				continue
			}
			seen[p] = true
			tr.Insert(p, i)
			entries = append(entries, entry{p, i})
		}
		for probe := 0; probe < 100; probe++ {
			a := Addr(rng.Uint32())
			bestBits, bestV, found := -1, 0, false
			for _, e := range entries {
				if e.p.Contains(a) && e.p.Bits() > bestBits {
					bestBits, bestV, found = e.p.Bits(), e.v, true
				}
			}
			gotV, gotOK := tr.Lookup(a)
			if gotOK != found || (found && gotV != bestV) {
				t.Fatalf("mismatch for %s: trie=%d,%v brute=%d,%v", a, gotV, gotOK, bestV, found)
			}
		}
	}
}

func TestTrieQuickInsertLookup(t *testing.T) {
	f := func(base uint32, bitsRaw uint8) bool {
		bits := int(bitsRaw % 33)
		var tr Trie[uint32]
		p := MakePrefix(Addr(base), bits)
		tr.Insert(p, base)
		v, ok := tr.Lookup(p.Base())
		return ok && v == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Walk visits every stored prefix in address order, calling fn; fn
// returning false stops the walk.
func (t *Trie[V]) Walk(fn func(Prefix, V) bool) {
	var walk func(n *trieNode[V], base Addr, bits int) bool
	walk = func(n *trieNode[V], base Addr, bits int) bool {
		if n == nil {
			return true
		}
		if n.set && !fn(MakePrefix(base, bits), n.val) {
			return false
		}
		if !walk(n.child[0], base, bits+1) {
			return false
		}
		return walk(n.child[1], base|(1<<(31-uint(bits))), bits+1)
	}
	walk(t.root, 0, 0)
}
