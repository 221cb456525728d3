impl HermesSwitch {
    // INVARIANT: intent-neutral chokepoint; every caller records intent
    fn dev_call<R>(&mut self, call: impl Fn(&mut TcamDevice) -> R) -> R {
        call(&mut self.device)
    }

    pub(super) fn dev_apply_batch(&mut self, ops: &[TcamOp]) {
        self.dev_call(|dev| dev.apply_batch(0, ops));
    }

    pub fn lend(&mut self, call: impl Fn(&mut TcamDevice)) {
        call(&mut self.device);
    }
}
