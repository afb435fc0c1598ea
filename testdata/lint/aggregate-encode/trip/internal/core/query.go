package core

import "github.com/afrinet/observatory/internal/store"

// writeAggregate encodes a report beside core.WriteAggReport.
func writeAggregate(fold *store.Folder) []byte {
	rep := fold.Report()
	body, _ := rep.AppendJSON(nil) // trip: internal/store.AggReport.AppendJSON
	return body
}

// Handlers serves the aggregate.
var Handlers = []func(*store.Folder) []byte{writeAggregate}
