//! Empty placeholder: no workspace code calls this package. It remains
//! only because the benchmark's committed lockfile lists it (through
//! `priosched-net`'s dependency edge); the package, its workspace entries
//! and that edge go when that lockfile is regenerated.
