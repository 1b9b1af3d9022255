//! R15 clean fixture: every ack and requeue is preceded by a durability
//! effect in its own function.

pub struct Spool;

impl Spool {
    pub fn save_record(&self, _id: u32) {}
}

pub fn enqueue(_id: u32) {}

pub fn append_frame(_id: u32) {}

pub fn ack_saved(spool: &Spool, id: u32) -> String {
    spool.save_record(id);
    format!("OK {id}")
}

pub fn ack_appended(id: u32) -> String {
    append_frame(id);
    let line = format!("OK {id}");
    line
}

pub fn requeue_after_save(spool: &Spool, id: u32) {
    spool.save_record(id);
    enqueue(id);
}

pub fn top(spool: &Spool, id: u32) -> String {
    let line = ack_saved(spool, id);
    requeue_after_save(spool, id);
    line
}
