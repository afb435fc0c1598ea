package main

import "github.com/afrinet/observatory/internal/route"

func main() {
	r := route.New()
	_ = r.Prefixes()
	_ = (&route.Table{}).Count()
}
