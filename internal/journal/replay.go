package journal

import (
	"encoding/json"
	"fmt"

	"github.com/afrinet/observatory/internal/par"
)

// An Op is one record kind's two halves, for an owner whose state is a C:
// it decodes a record's Data into the typed mutation it journals — a pure
// function of the bytes, no owner state — and returns the function that
// applies that mutation. An owner keeps one table from kind to Op, so
// that a kind can be decoded and that it can be applied are one entry.
type Op[C any] func(data []byte) (apply func(C), err error)

// OpOf is the Op of a kind whose Data is the JSON of a T and whose
// mutation is apply.
func OpOf[C, T any](apply func(C, T)) Op[C] {
	return func(data []byte) (func(C), error) {
		var op T
		if err := json.Unmarshal(data, &op); err != nil {
			return nil, err
		}
		return func(c C) { apply(c, op) }, nil
	}
}

// CutOpOf is OpOf with a fast path: cut reads a T out of the one layout
// json.Marshal writes for it, without reflection, and declines (!ok)
// anything else, which json.Unmarshal — the reference — then decodes.
// The apply of a mutation that took that fallback calls reflected first,
// for the owner to count: decode itself stays a pure function of the data.
func CutOpOf[C, T any](cut func([]byte) (T, bool), apply func(C, T), reflected func(C)) Op[C] {
	fallback := OpOf(func(c C, op T) { reflected(c); apply(c, op) })
	return func(data []byte) (func(C), error) {
		if op, ok := cut(data); ok {
			return func(c C) { apply(c, op) }, nil
		}
		return fallback(data)
	}
}

// DecodeOps decodes every record through its kind's entry in ops, in
// parallel like DecodeRecords, and returns the mutations in record order
// for the owner to apply one after another. The error is the one a
// serial replay meets first: the lowest record whose kind has no entry
// or whose Data does not decode.
func DecodeOps[C any](ops map[string]Op[C], recs []Record) ([]func(C), error) {
	applies := make([]func(C), len(recs))
	err := par.ForEachErr(0, len(recs), func(i int) (err error) {
		rec := recs[i]
		op, ok := ops[rec.Kind]
		if !ok {
			return fmt.Errorf("unknown journal record kind %q (seq %d)", rec.Kind, rec.Seq)
		}
		if applies[i], err = op(rec.Data); err != nil {
			return fmt.Errorf("replaying %s record seq %d: %w", rec.Kind, rec.Seq, err)
		}
		return nil
	})
	return applies, err
}
