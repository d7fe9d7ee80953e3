//! FW008 pass fixture, admin-handler surface: the public `handle_*`
//! endpoint is observable through its renderer, which feeds a counter.

/// Public admin endpoint; observability comes from the renderer it calls.
pub fn handle_status() -> String {
    render_status()
}

/// Builds the response body and counts the scrape.
fn render_status() -> String {
    fairwos_obs::counter_add("fixture/status_scrapes", 1);
    let mut body = Vec::with_capacity(16);
    body.extend_from_slice(b"ok");
    String::from_utf8_lossy(&body).into_owned()
}
