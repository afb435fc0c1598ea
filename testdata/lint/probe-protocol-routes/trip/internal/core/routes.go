package core

const probeBase = "/api/v1/probes/{id}"

// Routes lists per-probe routes, one built by constant concatenation.
var Routes = []string{
	probeBase + "/tasks",            // trip: "/api/v1/probes/{id}/tasks"
	"/api/v1/probes/{id}/heartbeat", // trip: "/api/v1/probes/{id}/heartbeat"
}
