package core

import "testing"

func TestRetiredRecords(t *testing.T) {
	var c Controller
	_ = c.mutateLocked(opResults, nil, func() {}) // trip: internal/core.Controller.mutateLocked(internal/core.opResults
	_ = c.mutateLocked(opSubmit, nil, func() {})  // trip: internal/core.Controller.mutateLocked(internal/core.opSubmit
}
