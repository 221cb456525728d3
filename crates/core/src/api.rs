//! The operator-facing API (§7, "Novel Abstractions").
//!
//! The paper's interface lets a network operator request performance
//! guarantees per switch and explore the performance/overhead trade-off:
//!
//! ```text
//! int    CreateTCAMQoS(SwitchID, perf-guarantee, match-predicate);
//! bool   DeleteQoS(ShadowID)
//! bool   ModQoSConfig(ShadowID, perf-guarantee)
//! bool   ModQoSMatch(ShadowID, match-predicate)
//! double QoSOverheads(SwitchID, perf-guarantee, match-predicate)
//! ```
//!
//! [`HermesApi`] is the Rust rendering: `create_tcam_qos` returns a
//! [`QosHandle`] carrying the shadow id and the *max burst rate* the Gate
//! Keeper will admit (Equation 2), and `qos_overheads` answers "what would
//! this guarantee cost?" without configuring anything.

use crate::config::{HermesConfig, RulePredicate};
use crate::switch::{HermesError, HermesSwitch};
use hermes_tcam::{SimDuration, SwitchModel};
use std::collections::BTreeMap;

/// Identifies a switch under management.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SwitchId(pub u32);

/// Identifies a configured QoS (shadow table) — the "file descriptor"
/// returned by `CreateTCAMQoS`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ShadowId(pub u32);

/// The result of configuring a guarantee.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct QosHandle {
    /// Handle for later `DeleteQoS` / `ModQoS*` calls.
    pub shadow_id: ShadowId,
    /// Maximum insert rate (rules/s) Hermes will admit under the guarantee
    /// (Equation 2).
    pub max_burst_rate: f64,
    /// Fraction of the switch's TCAM consumed by the shadow table.
    pub overhead: f64,
}

/// Errors from the management API.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ApiError {
    /// Unknown switch.
    UnknownSwitch(SwitchId),
    /// Unknown QoS handle.
    UnknownShadow(ShadowId),
    /// A QoS is already configured on this switch (one shadow per table in
    /// the single-table model).
    AlreadyConfigured(SwitchId),
    /// The switch cannot honour the guarantee.
    Infeasible(HermesError),
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ApiError::UnknownSwitch(id) => write!(f, "unknown switch {id:?}"),
            ApiError::UnknownShadow(id) => write!(f, "unknown shadow {id:?}"),
            ApiError::AlreadyConfigured(id) => write!(f, "switch {id:?} already has a QoS"),
            ApiError::Infeasible(e) => write!(f, "infeasible guarantee: {e}"),
        }
    }
}

impl std::error::Error for ApiError {}

/// The management plane: registered switches and their Hermes agents.
#[derive(Debug, Default)]
pub struct HermesApi {
    models: BTreeMap<SwitchId, SwitchModel>,
    agents: BTreeMap<SwitchId, HermesSwitch>,
    handles: BTreeMap<ShadowId, SwitchId>,
    next_shadow: u32,
}

impl HermesApi {
    /// An empty management plane.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a switch (its empirical model) with the management plane.
    pub fn register_switch(&mut self, id: SwitchId, model: SwitchModel) {
        self.models.insert(id, model);
    }

    /// `CreateTCAMQoS`: configures a guarantee on a switch and returns the
    /// handle plus the admitted burst rate.
    pub fn create_tcam_qos(
        &mut self,
        switch: SwitchId,
        guarantee: SimDuration,
        predicate: RulePredicate,
    ) -> Result<QosHandle, ApiError> {
        if !self.models.contains_key(&switch) {
            return Err(ApiError::UnknownSwitch(switch));
        }
        if self.agents.contains_key(&switch) {
            return Err(ApiError::AlreadyConfigured(switch));
        }
        let shadow = ShadowId(self.next_shadow);
        let handle = self.configure(switch, shadow, guarantee, predicate)?;
        self.next_shadow += 1;
        self.handles.insert(shadow, switch);
        Ok(handle)
    }

    /// Builds a registered switch's agent for a guarantee (replacing any
    /// previous one) and derives the handle the operator gets back.
    fn configure(
        &mut self,
        switch: SwitchId,
        shadow_id: ShadowId,
        guarantee: SimDuration,
        predicate: RulePredicate,
    ) -> Result<QosHandle, ApiError> {
        // INVARIANT: `create_tcam_qos` checked the switch is registered
        // before it issued any handle, and models are never removed.
        let model = self.models[&switch].clone();
        let config = HermesConfig {
            guarantee,
            predicate,
            ..Default::default()
        };
        let agent = HermesSwitch::new(model, config).map_err(ApiError::Infeasible)?;
        let handle = QosHandle {
            shadow_id,
            max_burst_rate: agent.max_supported_rate(),
            overhead: agent.overhead_fraction(),
        };
        self.agents.insert(switch, agent);
        Ok(handle)
    }

    /// `DeleteQoS`: removes a configured guarantee (the switch reverts to
    /// unmanaged).
    pub fn delete_qos(&mut self, shadow: ShadowId) -> Result<(), ApiError> {
        let switch = self
            .handles
            .remove(&shadow)
            .ok_or(ApiError::UnknownShadow(shadow))?;
        self.agents.remove(&switch);
        Ok(())
    }

    /// `ModQoSConfig`: re-targets the guarantee. Re-sizes the shadow table,
    /// which requires re-building the agent (the paper notes TCAM slice
    /// re-sizing is a heavyweight reconfiguration).
    pub fn mod_qos_config(
        &mut self,
        shadow: ShadowId,
        guarantee: SimDuration,
    ) -> Result<QosHandle, ApiError> {
        let switch = *self
            .handles
            .get(&shadow)
            .ok_or(ApiError::UnknownShadow(shadow))?;
        let predicate = self
            .agents
            .get(&switch)
            .map(|a| a.config().predicate.clone())
            .unwrap_or(RulePredicate::All);
        self.configure(switch, shadow, guarantee, predicate)
    }

    /// `ModQoSMatch`: replaces the predicate selecting guaranteed rules.
    ///
    /// No caller in the workspace; it stays because §7 of the paper lists
    /// it in the operator API (`HermesSwitch::set_predicate`, which it
    /// forwards to, is what `core/tests/switch_paths.rs` exercises).
    pub fn mod_qos_match(
        &mut self,
        shadow: ShadowId,
        predicate: RulePredicate,
    ) -> Result<(), ApiError> {
        let switch = *self
            .handles
            .get(&shadow)
            .ok_or(ApiError::UnknownShadow(shadow))?;
        let agent = self
            .agents
            .get_mut(&switch)
            .ok_or(ApiError::UnknownShadow(shadow))?;
        agent.set_predicate(predicate);
        Ok(())
    }

    /// `QoSOverheads`: the TCAM fraction a guarantee would consume on a
    /// switch — *without* configuring it. This is the trade-off explorer
    /// behind Figure 14.
    pub fn qos_overheads(&self, switch: SwitchId, guarantee: SimDuration) -> Result<f64, ApiError> {
        let model = self
            .models
            .get(&switch)
            .ok_or(ApiError::UnknownSwitch(switch))?;
        match model.max_table_for_guarantee(guarantee) {
            Some(size) => Ok(size.min(model.capacity / 2) as f64 / model.capacity as f64),
            None => Err(ApiError::Infeasible(HermesError::InfeasibleGuarantee)),
        }
    }

    /// Access a configured agent (the data path for simulations).
    pub fn agent_mut(&mut self, switch: SwitchId) -> Option<&mut HermesSwitch> {
        self.agents.get_mut(&switch)
    }

    /// Read-only agent access.
    pub fn agent(&self, switch: SwitchId) -> Option<&HermesSwitch> {
        self.agents.get(&switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn api_with_pica8() -> (HermesApi, SwitchId) {
        let mut api = HermesApi::new();
        let id = SwitchId(1);
        api.register_switch(id, SwitchModel::pica8_p3290());
        (api, id)
    }

    #[test]
    fn create_returns_rate_and_overhead() {
        let (mut api, id) = api_with_pica8();
        let h = api
            .create_tcam_qos(id, SimDuration::from_ms(5.0), RulePredicate::All)
            .unwrap();
        assert!(h.max_burst_rate > 0.0);
        assert!(
            h.overhead > 0.0 && h.overhead < 0.05,
            "overhead {:.3}",
            h.overhead
        );
        assert!(api.agent(id).is_some());
    }

    #[test]
    fn double_create_rejected() {
        let (mut api, id) = api_with_pica8();
        api.create_tcam_qos(id, SimDuration::from_ms(5.0), RulePredicate::All)
            .unwrap();
        assert_eq!(
            api.create_tcam_qos(id, SimDuration::from_ms(5.0), RulePredicate::All),
            Err(ApiError::AlreadyConfigured(id))
        );
    }

    #[test]
    fn unknown_switch_rejected() {
        let mut api = HermesApi::new();
        assert_eq!(
            api.create_tcam_qos(SwitchId(9), SimDuration::from_ms(5.0), RulePredicate::All),
            Err(ApiError::UnknownSwitch(SwitchId(9)))
        );
        assert!(api
            .qos_overheads(SwitchId(9), SimDuration::from_ms(5.0))
            .is_err());
    }

    #[test]
    fn delete_qos_removes_agent() {
        let (mut api, id) = api_with_pica8();
        let h = api
            .create_tcam_qos(id, SimDuration::from_ms(5.0), RulePredicate::All)
            .unwrap();
        api.delete_qos(h.shadow_id).unwrap();
        assert!(api.agent(id).is_none());
        assert_eq!(
            api.delete_qos(h.shadow_id),
            Err(ApiError::UnknownShadow(h.shadow_id))
        );
        // Can configure again afterwards.
        api.create_tcam_qos(id, SimDuration::from_ms(5.0), RulePredicate::All)
            .unwrap();
    }

    #[test]
    fn mod_qos_config_resizes() {
        let (mut api, id) = api_with_pica8();
        let h = api
            .create_tcam_qos(id, SimDuration::from_ms(1.0), RulePredicate::All)
            .unwrap();
        let h2 = api
            .mod_qos_config(h.shadow_id, SimDuration::from_ms(10.0))
            .unwrap();
        assert!(h2.overhead > h.overhead, "looser guarantee → larger shadow");
    }

    #[test]
    fn overheads_grow_with_guarantee() {
        let (api, id) = api_with_pica8();
        let o1 = api.qos_overheads(id, SimDuration::from_ms(1.0)).unwrap();
        let o5 = api.qos_overheads(id, SimDuration::from_ms(5.0)).unwrap();
        let o10 = api.qos_overheads(id, SimDuration::from_ms(10.0)).unwrap();
        assert!(o1 < o5 && o5 < o10);
        // Headline number: 5 ms under 5%.
        assert!(o5 < 0.05);
        let _ = api;
    }

    #[test]
    fn infeasible_guarantee_reported() {
        let (api, id) = api_with_pica8();
        assert!(matches!(
            api.qos_overheads(id, SimDuration::from_nanos(1)),
            Err(ApiError::Infeasible(_))
        ));
    }
}
