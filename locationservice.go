package probquorum

import "probquorum/internal/locservice"

// Location service types (the paper's driving application, Sections 1 and
// 9.2): periodic self-advertisement with the Section 6.1 degradation-driven
// refresh cadence. See internal/locservice.
type (
	// LocationService publishes and resolves node locations over the
	// cluster's quorum system.
	LocationService = locservice.Service
	// LocationServiceConfig tunes refresh behaviour.
	LocationServiceConfig = locservice.Config
	// LocateResult is a location query's outcome.
	LocateResult = locservice.LookupResult
)

// NewLocationService builds a location service over the cluster. Configure
// ChurnPerSecond to enable automatic re-advertisement at the Section 6.1
// derived period.
func (c *Cluster) NewLocationService(cfg LocationServiceConfig) *LocationService {
	return locservice.New(c.st.Sys, c.st.Net, cfg)
}
