package lookup

import (
	"testing"

	"github.com/afrinet/observatory/internal/route"
)

func TestTested(t *testing.T) {
	var w route.Walker = &route.Table{}
	w.Walk(func(string) {})
	if route.Tested() != 1 {
		t.Fatal("Tested is 1")
	}
}
