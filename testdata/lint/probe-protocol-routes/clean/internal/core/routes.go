package core

// Routes lists the probe routes.
var Routes = []string{"/api/v1/probes/sync", "/api/v1/probes/register", "/api/v1/probes/{id}"}
