package store

import "slices"

// sealedSummary is what the reads of one segment set share about its
// sealed runs: keys, the sorted union of their key hashes; repeats,
// whether a hash occurs twice in it; and, per group_by, the fold of every
// sealed record in sequence order, merged from the runs' memos by the
// first aggregate that wants it. Any change to s.segs drops it
// (dropSummaryLocked). memRepeats, set by the build and kept by Append,
// is whether a memtable key repeats another or one of keys. With neither
// flag set no key repeats in the store: first-wins dedup cannot fire.
// s.sumMu guards folds and charged.
type sealedSummary struct {
	keys       []uint64
	repeats    bool
	memRepeats bool
	folds      map[string]*Folder // by group_by; never changed once built
	charged    int64              // records charged to the segment cache's budget
}

// summaryLocked returns the sealed summary of the current segment set and
// whether the store is repeat-free. Without one it builds one when the
// read holds every sealed run decoded (an eager read's loaded, a memory
// segment's own, a cache entry), never loading a segment. It returns nil
// where it cannot, and always with fold memos off: the exact path.
func (s *Store) summaryLocked(scan []*segment, loaded []decoded, eager bool) (*sealedSummary, bool) {
	if !foldMemos {
		return nil, false
	}
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	if s.sum == nil {
		runs := make([][]uint64, 0, 16) // on the stack: a page that finds a run uncached allocates nothing
		j := 0
		for _, sg := range s.segs {
			d, ok := sg.mem, sg.path == ""
			if eager && j < len(scan) && scan[j] == sg {
				d, ok, j = loaded[j], true, j+1
			} else if !ok {
				d, ok = s.cache.peek(sg.id)
			}
			if !ok {
				return nil, false
			}
			runs = append(runs, d.keys)
		}
		sum := &sealedSummary{keys: union(runs), folds: map[string]*Folder{}}
		sum.repeats = hasRepeat(sum.keys)
		sum.memRepeats = hasRepeat(s.memKeys) || slices.ContainsFunc(s.memKeys, func(h uint64) bool { return holds(sum.keys, h) })
		s.sum = sum
		s.ctr.Inc("sealed_summary_builds")
		s.chargeSummaryLocked(sum, int64(8*len(sum.keys)))
	}
	return s.sum, !s.sum.repeats && !s.sum.memRepeats
}

// fold returns the fold by groupBy of every sealed run, merging their
// memos in sequence order on first use, under s.sumMu. It is only ever
// read after, and its group index with it, as the base index of the
// folds a Merge takes it whole into (Folder.base).
func (m *sealedSummary) fold(s *Store, groupBy string, runs []decoded) *Folder {
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	s.ctr.Inc("sealed_fold_hits")
	if f := m.folds[groupBy]; f != nil {
		return f
	}
	f := &Folder{GroupBy: groupBy}
	for _, d := range runs {
		if d.folds == nil { // a run the cache refused keeps no memo
			d.folds = &foldMemo{folds: map[string]*Folder{}}
		}
		_ = f.Merge(d.folds.fold(groupBy, d.recs, s.ctr)) // grouped alike: cannot fail
	}
	f.base, f.index = f.index, nil
	m.folds[groupBy] = f
	s.chargeSummaryLocked(m, foldBytes(f.Groups)+64*int64(len(f.base))) // 64: an index entry
	return f
}

// chargeSummaryLocked charges a disk store's cache budget, as for a memo.
func (s *Store) chargeSummaryLocked(m *sealedSummary, bytes int64) {
	if s.dir != "" {
		n := (bytes + cachedRecordBytes - 1) / cachedRecordBytes
		m.charged += n
		s.cache.chargeSummary(n)
	}
}

// dropSummaryLocked forgets the summary and its charge; s.mu is held.
func (s *Store) dropSummaryLocked() {
	if s.sum != nil && s.sum.charged != 0 {
		s.cache.chargeSummary(-s.sum.charged)
	}
	s.sum = nil
}

// hasRepeat reports whether sorted keys hold a hash twice.
func hasRepeat(keys []uint64) bool {
	for i := 1; i < len(keys); i++ {
		if keys[i] == keys[i-1] {
			return true
		}
	}
	return false
}

// holds reports whether sorted keys hold h.
func holds(keys []uint64, h uint64) bool {
	_, found := slices.BinarySearch(keys, h)
	return found
}
