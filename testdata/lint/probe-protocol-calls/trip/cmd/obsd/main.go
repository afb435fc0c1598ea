package main

import "github.com/afrinet/observatory/internal/core"

func main() {
	c := &core.Controller{}
	c.Heartbeat("p1")     // trip: internal/core.Controller.Heartbeat
	lease := c.LeaseTasks // trip: internal/core.Controller.LeaseTasks
	lease("p1")
}
