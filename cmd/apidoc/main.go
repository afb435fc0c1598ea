// Command apidoc prints the observatory's v1 API reference, generated
// from the two tiers' route tables (internal/core, internal/federation).
// Regenerate the committed copy with:
//
//	go run ./cmd/apidoc > API.md
//
// A conformance test (internal/core) fails when API.md drifts from the
// tables, so the reference cannot go stale silently.
package main

import (
	"fmt"

	"github.com/afrinet/observatory/internal/core"
	"github.com/afrinet/observatory/internal/federation"
)

func main() {
	fmt.Print(core.APIDocMarkdown(core.APIRoutes(), federation.APIRoutes()))
}
