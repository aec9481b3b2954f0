//! Cross-crate integration tests: real server applications running under the
//! full N-version execution framework, driven by real client workloads over
//! the virtual network.

use std::time::Duration;

use varan::apps::clients::{connect_retry, read_http_response, redis_benchmark, wrk};
use varan::apps::revisions::{lighttpd_rules, redis_revision_set};
use varan::apps::servers::httpd::{revs, HttpServer};
use varan::apps::servers::kvstore::KvServer;
use varan::apps::servers::ServerConfig;
use varan::core::coordinator::{run_nvx, NvxConfig, NvxSystem};
use varan::core::program::run_native;
use varan::core::{SanitizedVersion, Sanitizer, VersionProgram};
use varan::kernel::Kernel;

fn web_kernel() -> Kernel {
    let kernel = Kernel::new();
    kernel
        .populate_file("/var/www/index.html", vec![b'w'; 4096])
        .unwrap();
    kernel
}

#[test]
fn kvstore_with_three_followers_serves_a_real_client() {
    let kernel = Kernel::new();
    let port = 25_101;
    let connections = 4u64;
    let config = ServerConfig::on_port(port).with_connections(connections);
    let versions: Vec<Box<dyn VersionProgram>> = (0..4)
        .map(|_| Box::new(KvServer::new(config.clone())) as Box<dyn VersionProgram>)
        .collect();
    let running = NvxSystem::launch(&kernel, versions, NvxConfig::default()).unwrap();
    let client_kernel = kernel.clone();
    let client =
        std::thread::spawn(move || redis_benchmark(&client_kernel, port, connections as usize, 20));
    let client_report = client.join().unwrap();
    let report = running.wait();

    assert_eq!(client_report.errors, 0);
    assert_eq!(client_report.requests, connections * 20);
    assert!(report.all_clean(), "{:?}", report.exits);
    // Every follower consumed the same number of events the leader produced.
    let leader_events = report.versions[0].events;
    for follower in &report.versions[1..] {
        assert_eq!(follower.events, leader_events);
        assert_eq!(follower.divergences_killed, 0);
    }
    // Descriptor transfers happened for the listener and every accepted
    // connection.
    assert!(report.versions[0].fd_transfers as u64 >= connections);
}

#[test]
fn http_server_overhead_under_nvx_is_modest() {
    // Native baseline.
    let kernel = web_kernel();
    let port = 25_201;
    let connections = 4u64;
    let mut native_server =
        HttpServer::lighttpd(ServerConfig::on_port(port).with_connections(connections));
    let client_kernel = kernel.clone();
    let client = std::thread::spawn(move || {
        wrk(&client_kernel, port, connections as usize, 6, "/index.html")
    });
    let (_, native_cycles) = run_native(&kernel, &mut native_server);
    assert_eq!(client.join().unwrap().errors, 0);

    // Two followers under the monitor.
    let kernel = web_kernel();
    let port = 25_202;
    let config = ServerConfig::on_port(port).with_connections(connections);
    let versions: Vec<Box<dyn VersionProgram>> = (0..3)
        .map(|_| Box::new(HttpServer::lighttpd(config.clone())) as Box<dyn VersionProgram>)
        .collect();
    let running = NvxSystem::launch(&kernel, versions, NvxConfig::default()).unwrap();
    let client_kernel = kernel.clone();
    let client = std::thread::spawn(move || {
        wrk(&client_kernel, port, connections as usize, 6, "/index.html")
    });
    assert_eq!(client.join().unwrap().errors, 0);
    let report = running.wait();
    assert!(report.all_clean(), "{:?}", report.exits);

    let overhead = report.overhead_vs(native_cycles);
    assert!(
        overhead > 1.0 && overhead < 1.8,
        "lighttpd overhead should be modest, got {overhead:.2}"
    );
}

#[test]
fn redis_failover_survives_a_crashing_leader_mid_request() {
    let kernel = Kernel::new();
    let port = 25_301;
    let config = ServerConfig::on_port(port).with_connections(2);
    // Buggy revision leads; seven healthy revisions follow.
    let versions = redis_revision_set(&config, true);
    let running = NvxSystem::launch(&kernel, versions, NvxConfig::default()).unwrap();

    // First connection: trigger the HMGET crash bug in the leader.
    let endpoint = connect_retry(&kernel, port, Duration::from_secs(20)).unwrap();
    endpoint.write(b"HMGET ghost field\n").unwrap();
    let mut reply = Vec::new();
    loop {
        let chunk = endpoint.read(128, true).unwrap();
        if chunk.is_empty() {
            break;
        }
        reply.extend_from_slice(&chunk);
        if reply.contains(&b'\n') {
            break;
        }
    }
    endpoint.close();
    assert!(
        String::from_utf8_lossy(&reply).contains("*-1"),
        "the promoted follower must answer the in-flight request, got {reply:?}"
    );

    // Second connection: the service keeps running under the new leader.
    let endpoint = connect_retry(&kernel, port, Duration::from_secs(20)).unwrap();
    endpoint.write(b"PING\n").unwrap();
    let pong = endpoint.read(64, true).unwrap();
    assert!(String::from_utf8_lossy(&pong).contains("PONG"));
    endpoint.close();

    let report = running.wait();
    assert_eq!(report.promotions, 1);
    // The coordinator promotes the most-caught-up live follower (not
    // necessarily the first); whichever won restarted the interrupted call.
    assert!(
        report.versions[1..].iter().any(|v| v.restarts >= 1),
        "the interrupted call is restarted by the promoted follower"
    );
}

#[test]
fn lighttpd_revisions_run_together_only_with_rewrite_rules() {
    for with_rules in [true, false] {
        let kernel = web_kernel();
        let port = if with_rules { 25_401 } else { 25_402 };
        let connections = 3u64;
        let config = ServerConfig::on_port(port).with_connections(connections);
        let versions: Vec<Box<dyn VersionProgram>> = vec![
            Box::new(HttpServer::lighttpd(config.clone()).with_revision(revs::REV_2435)),
            Box::new(HttpServer::lighttpd(config.clone()).with_revision(revs::REV_2436)),
        ];
        let rules = if with_rules {
            lighttpd_rules(revs::REV_2435, revs::REV_2436).unwrap()
        } else {
            varan::core::RuleEngine::new()
        };
        let running =
            NvxSystem::launch(&kernel, versions, NvxConfig::default().with_rules(rules)).unwrap();
        let client_kernel = kernel.clone();
        let client = std::thread::spawn(move || {
            wrk(&client_kernel, port, connections as usize, 4, "/index.html")
        });
        let client_report = client.join().unwrap();
        let report = running.wait();

        // The leader always serves the client, rules or not.
        assert_eq!(client_report.errors, 0);
        let follower_exit = report.exits[1].as_deref().unwrap_or("?");
        if with_rules {
            assert!(follower_exit.starts_with("exited"), "{follower_exit}");
            assert!(report.versions[1].divergences_allowed > 0);
        } else {
            assert!(follower_exit.starts_with("panicked"), "{follower_exit}");
            assert_eq!(report.versions[1].divergences_killed, 1);
        }
    }
}

#[test]
fn sanitized_follower_does_not_slow_the_leader() {
    let run = |sanitized: bool| {
        let kernel = Kernel::new();
        let port = if sanitized { 25_501 } else { 25_502 };
        let connections = 3u64;
        let config = ServerConfig::on_port(port).with_connections(connections);
        let follower: Box<dyn VersionProgram> = if sanitized {
            Box::new(SanitizedVersion::new(
                Box::new(KvServer::new(config.clone())),
                Sanitizer::Address,
            ))
        } else {
            Box::new(KvServer::new(config.clone()))
        };
        let versions: Vec<Box<dyn VersionProgram>> =
            vec![Box::new(KvServer::new(config.clone())), follower];
        let running = NvxSystem::launch(&kernel, versions, NvxConfig::default()).unwrap();
        let client_kernel = kernel.clone();
        let client = std::thread::spawn(move || {
            redis_benchmark(&client_kernel, port, connections as usize, 15)
        });
        assert_eq!(client.join().unwrap().errors, 0);
        running.wait()
    };
    let plain = run(false);
    let sanitized = run(true);
    assert!(plain.all_clean() && sanitized.all_clean());
    let leader_plain = plain.versions[0].total_cycles() as f64;
    let leader_sanitized = sanitized.versions[0].total_cycles() as f64;
    // The leader's cost is unchanged (within noise) even though the follower
    // runs with a 2x-slower instrumented build.
    assert!(
        leader_sanitized < leader_plain * 1.1,
        "sanitized follower must not slow the leader: {leader_plain} vs {leader_sanitized}"
    );
}

#[test]
fn single_version_equals_interception_only_mode() {
    let kernel = Kernel::new();
    let port = 25_601;
    let connections = 2u64;
    let config = ServerConfig::on_port(port).with_connections(connections);
    let versions: Vec<Box<dyn VersionProgram>> = vec![Box::new(KvServer::new(config))];
    let running = NvxSystem::launch(&kernel, versions, NvxConfig::default()).unwrap();
    let client_kernel = kernel.clone();
    let client = std::thread::spawn(move || {
        redis_benchmark(&client_kernel, port, connections as usize, 10)
    });
    assert_eq!(client.join().unwrap().errors, 0);
    let report = running.wait();
    assert!(report.all_clean());
    assert_eq!(report.promotions, 0);
    assert!(report.events_published > 0);
}

#[test]
fn run_nvx_convenience_wrapper_matches_launch_and_wait() {
    struct Tiny;
    impl VersionProgram for Tiny {
        fn name(&self) -> String {
            "tiny".into()
        }
        fn run(
            &mut self,
            sys: &mut dyn varan::core::SyscallInterface,
        ) -> varan::core::ProgramExit {
            sys.write(1, b"tiny\n");
            sys.exit(0);
            varan::core::ProgramExit::Exited(0)
        }
    }
    let kernel = Kernel::new();
    let report = run_nvx(
        &kernel,
        vec![Box::new(Tiny), Box::new(Tiny), Box::new(Tiny)],
        NvxConfig::default(),
    )
    .unwrap();
    assert_eq!(report.versions.len(), 3);
    assert!(report.all_clean());
}

/// One HTTP GET over the virtual network; returns (status is `200 OK`, body).
fn http_get(kernel: &Kernel, port: u16, path: &str) -> (bool, String) {
    let endpoint = connect_retry(kernel, port, Duration::from_secs(20)).expect("connect");
    endpoint
        .write(format!("GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").as_bytes())
        .expect("send request");
    let response = read_http_response(&endpoint).expect("complete response");
    endpoint.close();
    let text = String::from_utf8_lossy(&response).into_owned();
    let body_at = text.find("\r\n\r\n").map_or(text.len(), |at| at + 4);
    (
        text.starts_with("HTTP/1.1 200 OK"),
        text[body_at..].to_owned(),
    )
}

/// The integer following `"key": ` in a telemetry snapshot's JSON.
fn snapshot_counter(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\": ");
    let at = json
        .find(&needle)
        .unwrap_or_else(|| panic!("{key} missing: {json}"));
    let digits: String = json[at + needle.len()..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits
        .parse()
        .unwrap_or_else(|_| panic!("{key} is not a counter: {json}"))
}

#[test]
fn metrics_endpoint_serves_live_counters_under_nvx() {
    // Two lighttpd versions on a 64-slot ring: the follower must stay within
    // a lap of the leader, so by the time the scrape renders events have been
    // both published and replayed — and serving the scrape itself must not
    // make the versions diverge.
    let kernel = web_kernel();
    let port = 25_701;
    let connections = 32u64;
    let versions: Vec<Box<dyn VersionProgram>> = (0..2)
        .map(|_| {
            Box::new(HttpServer::lighttpd(
                ServerConfig::on_port(port).with_connections(connections),
            )) as Box<dyn VersionProgram>
        })
        .collect();
    let client_kernel = kernel.clone();
    let client = std::thread::spawn(move || {
        for _ in 0..connections - 3 {
            assert!(http_get(&client_kernel, port, "/index.html").0);
        }
        let json = http_get(&client_kernel, port, "/varan/metrics");
        let prom = http_get(&client_kernel, port, "/varan/metrics.prom");
        assert!(http_get(&client_kernel, port, "/index.html").0);
        (json, prom)
    });
    let running = NvxSystem::launch(
        &kernel,
        versions,
        NvxConfig::default().with_ring_capacity(64),
    )
    .unwrap();
    let ((json_ok, json), (prom_ok, prom)) = client.join().unwrap();
    let report = running.wait();

    assert!(json_ok, "metrics scrape failed: {json}");
    assert!(json.contains(varan_obs::SNAPSHOT_SCHEMA), "{json}");
    assert!(snapshot_counter(&json, "events_published_total") > 0);
    assert!(snapshot_counter(&json, "events_replayed_total") > 0);
    assert!(prom_ok, "prometheus scrape failed: {prom}");
    assert!(prom.contains("# TYPE varan_"), "{prom}");
    assert!(report.all_clean(), "{:?}", report.exits);
}
