package federation

import "github.com/afrinet/observatory/internal/store"

// Body appends a merged fold's report through a method value.
func Body(fold *store.Folder) []byte {
	appendReport := fold.AppendReport // trip: internal/store.Folder.AppendReport
	body, _ := appendReport(nil)
	return body
}
