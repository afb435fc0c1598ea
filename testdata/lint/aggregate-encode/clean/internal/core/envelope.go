package core

import "github.com/afrinet/observatory/internal/store"

// WriteAggReport is the one writer of an aggregate.
func WriteAggReport(fold *store.Folder) []byte {
	body, ok := fold.AppendReport(nil)
	if !ok {
		rep := fold.Report()
		body, _ = rep.AppendJSON(nil)
	}
	return body
}
