package main

import "github.com/afrinet/observatory/internal/federation"

// The benchmark times a ship itself, outside cmd/ and internal/.
func shipLayer(src, dst string) error { return federation.ShipState(src, dst) }

func main() {}
