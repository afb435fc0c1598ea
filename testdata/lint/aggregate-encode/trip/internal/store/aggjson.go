package store

// AggReport is a finished aggregate.
type AggReport struct{ Matched int64 }

// Folder is a partial aggregate.
type Folder struct{ Matched int64 }

// Report finishes the aggregate.
func (f *Folder) Report() AggReport { return AggReport{f.Matched} }

// AppendJSON appends the report's JSON form.
func (r *AggReport) AppendJSON(dst []byte) ([]byte, bool) { return append(dst, '{', '}'), true }

// AppendReport appends Report's JSON form.
func (f *Folder) AppendReport(dst []byte) ([]byte, bool) {
	r := f.Report()
	return r.AppendJSON(dst)
}
