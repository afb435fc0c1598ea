package main

import "github.com/afrinet/observatory/internal/route"

func main() { _ = route.Live() }
