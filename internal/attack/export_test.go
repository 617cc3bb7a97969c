package attack

// InfectedWalks exposes the process-wide count of infected-set derivations to
// the external test that pins how often the daemon derives the set.
func InfectedWalks() int64 { return infectedWalks.Load() }
