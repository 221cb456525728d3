impl HermesSwitch {
    pub fn install(&mut self, r: Rule) {
        self.intent.record(IntentOp::Install(r));
        self.device.apply(0, &r);
    }

    pub fn migrate(&mut self) {
        self.device.apply_batch(0, &[]);
    }

    pub fn phantom(&mut self, r: Rule) {
        self.intent.record(IntentOp::Install(r));
    }

    // INVARIANT: intent-neutral chokepoint; every caller records intent
    fn chokepoint(&mut self) {
        self.device.apply(0, &[]);
    }

    pub fn guarded(&mut self, r: Rule) {
        self.intent.record(IntentOp::Install(r));
        self.chokepoint();
    }

    pub fn batched(&mut self, r: Rule) {
        self.intent.record(IntentOp::Install(r));
        self.dev_apply_batch(&[]);
    }
}
