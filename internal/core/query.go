package core

// query.go serves GET /api/v1/query: one parse of the filter, one list
// of ops, one encoding of each answer. A scan's records arrive already
// encoded (store.Item) and leave through WriteScanPage without being
// decoded; a report leaves through WriteAggReport without reflection.

import (
	"fmt"
	"net/http"
	"strings"

	"github.com/afrinet/observatory/internal/store"
)

// queryOps names the ops handleQuery's switch serves, for its
// unknown-op error and for API.md.
const queryOps = "aggregate, scan or fold"

// handleQuery answers one /api/v1/query request from the tier's backend.
func (a api) handleQuery(w http.ResponseWriter, r *http.Request, _ PathParams) {
	q := r.URL.Query()
	f, err := store.ParseFilter(q)
	if err != nil {
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest, err)
		return
	}
	agg := store.AggQuery{Filter: f, GroupBy: q.Get("group_by")}
	switch op := q.Get("op"); op {
	case "", "aggregate":
		if fold, meta, err := a.b.Fold(agg); err != nil {
			a.writeErr(w, err)
		} else {
			WriteAggReport(w, fold, meta)
		}
	case "fold":
		if fold, meta, err := a.b.Fold(agg); err != nil {
			a.writeErr(w, err)
		} else {
			WriteJSON(w, http.StatusOK, struct {
				*store.Folder
				QueryMeta
			}{fold, meta})
		}
	case "scan":
		limit, ok := parseCount(w, "limit", q.Get("limit"), 0)
		if !ok {
			return
		}
		if items, next, meta, err := a.b.ScanItems(f, limit, q.Get("cursor")); err != nil {
			a.writeErr(w, err)
		} else {
			WriteScanPage(w, items, next, meta)
		}
	default:
		WriteAPIError(w, http.StatusBadRequest, ErrCodeBadRequest,
			fmt.Errorf("unknown op %q (want %s)", op, queryOps))
	}
}

// queryParamDocs documents the query route. The record filters come
// straight from the store's filter table, so a parameter added there is
// served, sent by the client and documented without an edit here.
func queryParamDocs() []ParamDoc {
	out := []ParamDoc{{Name: "op", Doc: queryOps + "; omitted means aggregate"}}
	for _, p := range store.FilterParams() {
		out = append(out, ParamDoc{Name: p.Name, Doc: "record filter: " + p.Doc})
	}
	return append(out,
		ParamDoc{Name: "group_by", Doc: "aggregate and fold: " + strings.Join(store.GroupByModes, ", ")},
		ParamDoc{Name: "limit / cursor", Doc: "scan only: pagination"})
}
