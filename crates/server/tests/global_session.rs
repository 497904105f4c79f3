//! The daemon's request path stays off the process-wide fallback engine
//! session (`EngineCtx::global`). Any polyhedral object built outside an
//! explicit session interns its parameter names there, so a kernel built
//! on a connection thread or a worker would show up in its interner. That
//! session is shared by the whole process, so this check has a test binary
//! of its own.

use iolb_poly::EngineCtx;
use iolb_server::json::{self, Json};
use iolb_server::{Server, ServerConfig};

const GEMM_SOURCE: &str = include_str!("../../../examples/programs/gemm.iolb");

#[test]
fn serving_interns_nothing_in_the_global_session() {
    let server = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let source = format!(r#"{{"source": {}}}"#, json::escape(GEMM_SOURCE));
    let requests: [(&str, Option<bool>); 6] = [
        (r#"{"kernel": "gemm"}"#, Some(false)),
        (r#"{"kernel": "gemm"}"#, Some(true)),
        (r#"{"kernel": "atax", "cache_size": 4096}"#, Some(false)),
        (r#"{"kernel": "no-such-kernel"}"#, None),
        (&source, Some(false)),
        (&source, Some(true)),
    ];
    for (line, cached) in requests {
        let reply = server.handle_line(line);
        let doc = json::parse(&reply).expect("reply parses");
        match cached {
            Some(cached) => {
                assert_eq!(doc.get("status").and_then(Json::as_str), Some("ok"));
                assert_eq!(doc.get("cached"), Some(&Json::Bool(cached)), "{reply}");
            }
            None => {
                let code = doc.get("error").and_then(|e| e.get("code"));
                assert_eq!(code.and_then(Json::as_str), Some("unknown_kernel"));
            }
        }
    }
    server.shutdown();
    assert_eq!(
        EngineCtx::global().interned_params(),
        0,
        "a request built polyhedral objects outside its analysis session"
    );
}
