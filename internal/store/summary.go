package store

import "slices"

// sealedSummary is what the reads of one segment set share about its
// sealed runs, every record at or below upTo: keys, the sorted union of
// their key hashes; repeats, whether a hash occurs twice in it; and, per
// group_by, the fold of every sealed record in sequence order, built by
// the first aggregate that wants it. A flush leaves it as it is, stale,
// and the first read after derives the next from it (summaryLocked); a
// compaction or retention sweep that changes s.segs drops it
// (dropSummaryLocked), as a reopen does. memRepeats, set by the build and
// kept by Append while the summary is current, is whether a memtable key
// repeats another or one of keys. With neither flag set no key repeats in
// the store: first-wins dedup cannot fire. s.sumMu guards folds and
// charged.
type sealedSummary struct {
	keys       []uint64
	repeats    bool
	memRepeats bool
	upTo       uint64             // the sealed seq it covers (Store.sealedSeqLocked)
	folds      map[string]*Folder // by group_by; never changed once built
	charged    int64              // records charged to the segment cache's budget
}

var foldMemos = true // off only in tests that hold the sealed summary to the exact path

// summaryLocked returns the sealed summary of the current segment set and
// whether the store is repeat-free. Where a flush has sealed runs past the
// summary's, it derives the next summary from the last: their keys joined
// to its keys, and each fold it had merged with the fold of their records
// (sealed_folds_derived); without one it builds one. Either needs the read
// to hold every run it adds decoded (an eager read's loaded, a memory
// segment's own, a cache entry), never loading a segment. It returns nil
// where it cannot, and always with fold memos off: the exact path.
func (s *Store) summaryLocked(scan []*segment, loaded []decoded, eager bool) (*sealedSummary, bool) {
	if !foldMemos {
		return nil, false
	}
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	if old, upTo := s.sum, s.sealedSeqLocked(); old == nil || old.upTo != upTo {
		var from uint64                 // the last seq old covers
		keys := make([][]uint64, 0, 16) // on the stack: a page that finds a run uncached allocates nothing
		runs := make([]decoded, 0, 16)
		if old != nil {
			from, keys = old.upTo, append(keys, old.keys)
		}
		j := 0
		for _, sg := range s.segs {
			d, ok := sg.mem, sg.path == ""
			if eager && j < len(scan) && scan[j] == sg {
				d, ok, j = loaded[j], true, j+1
			}
			if sg.meta.MaxSeq <= from {
				continue // old covers it
			}
			if !ok {
				d, ok = s.cache.peek(sg.id)
			}
			if !ok {
				return nil, false
			}
			keys, runs = append(keys, d.keys), append(runs, d)
		}
		sum := &sealedSummary{keys: union(keys), upTo: upTo, folds: map[string]*Folder{}}
		sum.repeats = hasRepeat(sum.keys)
		sum.memRepeats = hasRepeat(s.memKeys) || slices.ContainsFunc(s.memKeys, func(h uint64) bool { return holds(sum.keys, h) })
		s.dropSummaryLocked()
		s.sum = sum
		s.ctr.Inc("sealed_summary_builds")
		s.chargeSummaryLocked(sum, int64(8*len(sum.keys)))
		if old != nil && !sum.repeats && !sum.memRepeats { // a summary that is not repeat-free never folds
			for gb, f := range old.folds {
				next := &Folder{GroupBy: gb}
				_ = next.Merge(f, foldRuns(gb, runs)) // in sequence order; grouped alike: cannot fail
				s.keepFoldLocked(sum, next)
				s.ctr.Inc("sealed_folds_derived")
			}
		}
	}
	return s.sum, !s.sum.repeats && !s.sum.memRepeats
}

// fold returns the fold by groupBy of every sealed run, folding their
// records in sequence order on first use, under s.sumMu.
func (m *sealedSummary) fold(s *Store, groupBy string, runs []decoded) *Folder {
	s.sumMu.Lock()
	defer s.sumMu.Unlock()
	s.ctr.Inc("sealed_fold_hits")
	if f := m.folds[groupBy]; f != nil {
		return f
	}
	f := foldRuns(groupBy, runs)
	s.keepFoldLocked(m, f)
	return f
}

// foldRuns folds every record of runs, in order.
func foldRuns(groupBy string, runs []decoded) *Folder {
	f := &Folder{GroupBy: groupBy}
	for _, d := range runs {
		for i := range d.recs {
			f.Add(&d.recs[i])
		}
	}
	return f
}

// keepFoldLocked makes f m's fold of its group_by and charges it. It is
// only ever read after, and its group index with it, as the base index of
// the folds a Merge takes it whole into (Folder.base).
func (s *Store) keepFoldLocked(m *sealedSummary, f *Folder) {
	f.base, f.index = f.index, nil
	m.folds[f.GroupBy] = f
	s.chargeSummaryLocked(m, foldBytes(f.Groups)+64*int64(len(f.base))) // 64: an index entry
}

// chargeSummaryLocked charges a disk store's cache budget, as for a
// cached record (cachedRecordBytes).
func (s *Store) chargeSummaryLocked(m *sealedSummary, bytes int64) {
	if s.dir != "" {
		n := (bytes + cachedRecordBytes - 1) / cachedRecordBytes
		m.charged += n
		s.cache.chargeSummary(n)
	}
}

// dropSummaryLocked forgets the summary and gives its charge back: s.mu
// is held, or s.sumMu under its read lock.
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
