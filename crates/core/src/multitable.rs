//! Multi-table pipelines (§6, "Supporting Multiple TCAM Tables").
//!
//! Modern switches expose several TCAM tables chained into a match-action
//! pipeline. Hermes "addresses this evolution by independently carving
//! each TCAM table to support a shadow and a main table", which also lets
//! different tables carry *different guarantees* — attractive when tables
//! serve radically different functions (e.g. an ACL table that must absorb
//! security rules within 2 ms next to a routing table content with 10 ms).
//!
//! To preserve the original pipeline semantics, each logical table's
//! *main* slice keeps the original table-miss behaviour (goto-next /
//! punt / drop), while every shadow slice keeps Hermes's own
//! "goto the main table" fall-through.

use crate::config::HermesConfig;
use crate::manager::MigrationReport;
use crate::switch::{ActionReport, HermesError, HermesStats, HermesSwitch};
use hermes_rules::prelude::*;
use hermes_tcam::{walk_pipeline, LookupResult, MissBehavior, SimTime, SwitchModel};

/// Configuration of one logical pipeline table.
#[derive(Clone, Debug)]
pub struct TableSpec {
    /// Hermes configuration for this table (guarantee, predicate, trigger…).
    pub config: HermesConfig,
    /// Fraction of the ASIC's TCAM capacity assigned to this table.
    pub capacity_share: f64,
    /// The original table's miss behaviour, preserved by the carving.
    pub miss: MissBehavior,
}

impl TableSpec {
    /// An even-share table with the given config and goto-next miss.
    pub fn new(config: HermesConfig) -> Self {
        TableSpec {
            config,
            capacity_share: 0.0,
            miss: MissBehavior::GotoNextSlice,
        }
    }
}

/// A Hermes-managed multi-table pipeline: one independently carved
/// shadow/main pair per logical table.
#[derive(Debug)]
pub struct MultiTableHermes {
    tables: Vec<HermesSwitch>,
    misses: Vec<MissBehavior>,
}

impl MultiTableHermes {
    /// Builds the pipeline over one ASIC. Tables with `capacity_share`
    /// of 0 split the remaining capacity evenly.
    pub fn new(model: SwitchModel, specs: Vec<TableSpec>) -> Result<Self, HermesError> {
        assert!(!specs.is_empty(), "a pipeline needs at least one table");
        let explicit: f64 = specs.iter().map(|s| s.capacity_share).sum();
        assert!(explicit <= 1.0 + 1e-9, "capacity shares exceed the ASIC");
        let unspecified = specs.iter().filter(|s| s.capacity_share == 0.0).count();
        let default_share = if unspecified > 0 {
            (1.0 - explicit) / unspecified as f64
        } else {
            0.0
        };
        let mut tables = Vec::with_capacity(specs.len());
        let mut misses = Vec::with_capacity(specs.len());
        for spec in specs {
            let share = if spec.capacity_share > 0.0 {
                spec.capacity_share
            } else {
                default_share
            };
            let mut sub_model = model.clone();
            sub_model.capacity = ((model.capacity as f64) * share).floor() as usize;
            if sub_model.capacity < 4 {
                return Err(HermesError::InfeasibleGuarantee);
            }
            tables.push(HermesSwitch::new(sub_model, spec.config)?);
            misses.push(spec.miss);
        }
        Ok(MultiTableHermes { tables, misses })
    }

    /// Number of logical tables.
    pub fn table_count(&self) -> usize {
        self.tables.len()
    }

    /// Borrow a logical table's agent.
    pub fn table(&self, idx: usize) -> &HermesSwitch {
        &self.tables[idx]
    }

    /// Submits a control action targeted at one logical table (the
    /// Broadcom-SDK "group" targeting of §6).
    pub fn submit(
        &mut self,
        table: usize,
        action: &ControlAction,
        now: SimTime,
    ) -> Result<ActionReport, HermesError> {
        self.tables[table].submit(action, now)
    }

    /// Ticks every table's Rule Manager.
    pub fn tick(&mut self, now: SimTime) -> Vec<Option<MigrationReport>> {
        self.tables.iter_mut().map(|t| t.tick(now)).collect()
    }

    /// Full-pipeline lookup: tables are traversed in order under the
    /// device's own pipeline rules ([`walk_pipeline`]): a match whose
    /// action is [`Action::GotoNextTable`] continues, any other match
    /// terminates; a miss follows the *original* table's miss behaviour.
    pub fn lookup(&mut self, packet: u128) -> LookupResult {
        let (tables, misses) = (&mut self.tables, &self.misses);
        walk_pipeline(tables.len(), |i| (matched(tables[i].lookup(packet)), misses[i]))
    }

    /// Per-table statistics.
    pub fn stats(&self) -> Vec<HermesStats> {
        self.tables.iter().map(|t| t.stats()).collect()
    }

    /// Total TCAM overhead across tables, as a fraction of the ASIC.
    pub fn overhead_fraction(&self, model: &SwitchModel) -> f64 {
        let shadow_total: usize = self.tables.iter().map(|t| t.shadow_capacity()).sum();
        shadow_total as f64 / model.capacity as f64
    }
}

/// One table's verdict as a pipeline stage reports it. The table has
/// already honoured its shadow→main fall-through, so anything but a match
/// is the logical table's miss.
fn matched(result: LookupResult) -> Option<(usize, Rule)> {
    match result {
        LookupResult::Matched { slice, rule } => Some((slice, rule)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hermes_tcam::SimDuration;

    fn pipeline() -> MultiTableHermes {
        // ACL table (tight 2 ms guarantee, falls through on miss) +
        // routing table (10 ms, punts on miss).
        let model = SwitchModel::pica8_p3290();
        MultiTableHermes::new(
            model,
            vec![
                TableSpec {
                    config: HermesConfig::with_guarantee(SimDuration::from_ms(2.0)),
                    capacity_share: 0.25,
                    miss: MissBehavior::GotoNextSlice,
                },
                TableSpec {
                    config: HermesConfig::with_guarantee(SimDuration::from_ms(10.0)),
                    capacity_share: 0.75,
                    miss: MissBehavior::ToController,
                },
            ],
        )
        .unwrap()
    }

    fn rule(id: u64, pfx: &str, prio: u32, action: Action) -> Rule {
        let p: Ipv4Prefix = pfx.parse().unwrap();
        Rule::new(id, p.to_key(), Priority(prio), action)
    }

    fn pkt(s: &str) -> u128 {
        let p: Ipv4Prefix = format!("{s}/32").parse().unwrap();
        (p.addr() as u128) << 96
    }

    #[test]
    fn per_table_guarantees_differ() {
        let p = pipeline();
        assert_eq!(p.table_count(), 2);
        assert_eq!(p.table(0).config().guarantee, SimDuration::from_ms(2.0));
        assert_eq!(p.table(1).config().guarantee, SimDuration::from_ms(10.0));
        // Tighter guarantee → smaller shadow (both nonzero).
        assert!(p.table(0).shadow_capacity() > 0);
        assert!(p.table(1).shadow_capacity() > 0);
    }

    #[test]
    fn pipeline_lookup_semantics() {
        let mut p = pipeline();
        let now = SimTime::ZERO;
        // ACL: drop traffic to 10.9.0.0/16, pass the rest through.
        p.submit(
            0,
            &ControlAction::Insert(rule(1, "10.9.0.0/16", 10, Action::Drop)),
            now,
        )
        .unwrap();
        // Routing: forward 10.0.0.0/8 to port 7.
        p.submit(
            1,
            &ControlAction::Insert(rule(2, "10.0.0.0/8", 5, Action::Forward(7))),
            now,
        )
        .unwrap();

        // Blocked by ACL.
        assert_eq!(p.lookup(pkt("10.9.1.1")).action(), Some(Action::Drop));
        // Passes ACL (miss → goto next), routed by table 1.
        assert_eq!(p.lookup(pkt("10.1.2.3")).action(), Some(Action::Forward(7)));
        // Misses everything: table 1's original punt behaviour.
        assert_eq!(p.lookup(pkt("99.9.9.9")), LookupResult::ToController);
    }

    #[test]
    fn goto_next_table_action_chains() {
        let mut p = pipeline();
        let now = SimTime::ZERO;
        // An ACL "accept" rule that explicitly sends to the next table.
        p.submit(
            0,
            &ControlAction::Insert(rule(1, "10.0.0.0/8", 10, Action::GotoNextTable)),
            now,
        )
        .unwrap();
        p.submit(
            1,
            &ControlAction::Insert(rule(2, "10.0.0.0/8", 5, Action::Forward(3))),
            now,
        )
        .unwrap();
        assert_eq!(p.lookup(pkt("10.1.1.1")).action(), Some(Action::Forward(3)));
    }

    #[test]
    fn guarantees_hold_per_table() {
        let mut p = pipeline();
        let mut now = SimTime::ZERO;
        for i in 0..200u64 {
            now += SimDuration::from_ms(20.0);
            let r = rule(
                1000 + i,
                &format!("10.{}.{}.0/24", i % 200, (i * 7) % 250),
                20 + (i % 50) as u32,
                Action::Forward(1),
            );
            let report = p
                .submit((i % 2) as usize, &ControlAction::Insert(r), now)
                .unwrap();
            if matches!(report.route(), Some(crate::gatekeeper::Route::Shadow)) {
                let bound = p.table((i % 2) as usize).config().guarantee;
                assert!(report.latency <= bound, "table {} broke its bound", i % 2);
            }
            p.tick(now);
        }
        let stats = p.stats();
        assert_eq!(stats[0].violations, 0);
        assert_eq!(stats[1].violations, 0);
    }

    #[test]
    fn overhead_sums_across_tables() {
        let model = SwitchModel::pica8_p3290();
        let p = pipeline();
        let overhead = p.overhead_fraction(&model);
        assert!(overhead > 0.0 && overhead < 0.2, "overhead {overhead}");
    }

    #[test]
    fn even_split_for_unspecified_shares() {
        let model = SwitchModel::pica8_p3290();
        let p = MultiTableHermes::new(
            model.clone(),
            vec![
                TableSpec::new(HermesConfig::default()),
                TableSpec::new(HermesConfig::default()),
                TableSpec::new(HermesConfig::default()),
                TableSpec::new(HermesConfig::default()),
            ],
        )
        .unwrap();
        assert_eq!(p.table_count(), 4);
        // Each table's device capacity ≈ a quarter of the ASIC.
        for i in 0..4 {
            let cap = p.table(i).device().model().capacity;
            assert!((cap as f64 - model.capacity as f64 / 4.0).abs() <= 1.0);
        }
    }

    #[test]
    fn drop_miss_behaviour_respected() {
        let model = SwitchModel::pica8_p3290();
        let mut p = MultiTableHermes::new(
            model,
            vec![TableSpec {
                config: HermesConfig::default(),
                capacity_share: 1.0,
                miss: MissBehavior::Drop,
            }],
        )
        .unwrap();
        assert_eq!(p.lookup(pkt("1.2.3.4")), LookupResult::Dropped);
    }
}
