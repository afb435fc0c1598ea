package netx

// Trie is a binary radix trie keyed by IPv4 prefixes, supporting
// longest-prefix-match lookup. The zero value is an empty trie ready to
// use. Values are opaque; the simulator stores ASNs and the measurement
// tools store classification tags.
//
// Trie is not safe for concurrent mutation; concurrent lookups after all
// inserts are complete are safe because lookups never write.
type Trie[V any] struct {
	root *trieNode[V]
	size int
}

type trieNode[V any] struct {
	child [2]*trieNode[V]
	val   V
	set   bool
}

// Insert associates val with the prefix, replacing any previous value at
// exactly that prefix.
func (t *Trie[V]) Insert(p Prefix, val V) {
	if t.root == nil {
		t.root = &trieNode[V]{}
	}
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		b := (p.Base() >> (31 - uint(i))) & 1
		if n.child[b] == nil {
			n.child[b] = &trieNode[V]{}
		}
		n = n.child[b]
	}
	if !n.set {
		t.size++
	}
	n.val, n.set = val, true
}

// Lookup returns the value of the longest prefix containing addr.
func (t *Trie[V]) Lookup(addr Addr) (V, bool) {
	var best V
	found := false
	n := t.root
	for i := 0; n != nil; i++ {
		if n.set {
			best, found = n.val, true
		}
		if i == 32 {
			break
		}
		b := (addr >> (31 - uint(i))) & 1
		n = n.child[b]
	}
	return best, found
}

// LookupPrefix returns the value stored at exactly the given prefix.
func (t *Trie[V]) LookupPrefix(p Prefix) (V, bool) {
	var zero V
	n := t.root
	for i := 0; i < p.Bits(); i++ {
		if n == nil {
			return zero, false
		}
		b := (p.Base() >> (31 - uint(i))) & 1
		n = n.child[b]
	}
	if n == nil || !n.set {
		return zero, false
	}
	return n.val, true
}

// Len returns the number of prefixes stored.
func (t *Trie[V]) Len() int { return t.size }
