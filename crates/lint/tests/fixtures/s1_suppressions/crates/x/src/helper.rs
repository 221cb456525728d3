// hermes-lint: allow(R2)
pub fn head(v: &[u32]) -> u32 { *v.first().unwrap() }

// hermes-lint: allow(R2, reason = "callers check emptiness first")
pub fn tail(v: &[u32]) -> u32 { *v.last().unwrap() }
