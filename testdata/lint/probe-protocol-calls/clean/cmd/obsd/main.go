package main

import "github.com/afrinet/observatory/internal/core"

func main() {
	c := &core.Controller{}
	c.SyncProbe("p1")
	core.Agent{}.Heartbeat("p1")
}
