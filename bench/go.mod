// The benchmark is a module of its own so that it builds from the files
// under bench/ plus the repository it sits in: the replace line resolves
// openhire to the parent directory, and the openhire/ path prefix keeps the
// internal packages importable.
module openhire/bench

go 1.22

require openhire v0.0.0

replace openhire => ../
