pub fn record_hit() {
    hermes_telemetry::counter("x.hits", 1);
}

pub fn record_miss() {
    hermes_telemetry::counter("x.misses", 1);
}

pub fn bump(name: &str) {
    hermes_telemetry::counter(name, 1);
}
