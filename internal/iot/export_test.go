package iot

// IndexBuilds exposes the process-wide count of exposure-index builds to the
// external test that fences the daemon away from the index.
func IndexBuilds() int64 { return indexBuilds.Load() }
