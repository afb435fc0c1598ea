package main

import "github.com/afrinet/observatory/internal/federation"

// boot fails shards over through the federation's own hook.
func boot(root string) func(string, int) error { return federation.BootLocal(root) }

func main() {}
