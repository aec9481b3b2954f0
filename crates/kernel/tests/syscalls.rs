//! Integration tests for the virtual kernel's system-call dispatcher.

use std::time::Duration;

use varan_kernel::fs::flags;
use varan_kernel::signal::Signal;
use varan_kernel::syscall::{fcntl, whence, SyscallRequest};
use varan_kernel::{Errno, Kernel, Sysno};

#[test]
fn identity_and_time_syscalls() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("id");
    assert_eq!(kernel.syscall(pid, &SyscallRequest::getuid()).result, 1000);
    assert_eq!(
        kernel
            .syscall(pid, &SyscallRequest::new(Sysno::Getegid, [0; 6]))
            .result,
        1000
    );
    assert_eq!(
        kernel
            .syscall(pid, &SyscallRequest::new(Sysno::Getpid, [0; 6]))
            .result,
        i64::from(pid)
    );
    let time = kernel.syscall(pid, &SyscallRequest::time());
    assert!(time.result >= 1_426_464_000);
    let tod = kernel.syscall(pid, &SyscallRequest::gettimeofday());
    assert_eq!(tod.result, 0);
    assert_eq!(tod.payload_len(), 16);
    let cg = kernel.syscall(pid, &SyscallRequest::clock_gettime());
    assert_eq!(cg.payload_len(), 16);
}

#[test]
fn file_lifecycle_open_read_write_close() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("filer");
    kernel
        .populate_file("/var/www/index.html", b"hello world".to_vec())
        .unwrap();

    let open = kernel.syscall(pid, &SyscallRequest::open_read("/var/www/index.html"));
    assert!(open.result >= 3);
    assert!(open.fd.is_some(), "open must flag an fd for transfer");
    let fd = open.result as i32;

    let read = kernel.syscall(pid, &SyscallRequest::read(fd, 5));
    assert_eq!(read.result, 5);
    assert_eq!(read.data.as_deref(), Some(&b"hello"[..]));

    // Offset advanced: the next read continues where the first stopped.
    let read = kernel.syscall(pid, &SyscallRequest::read(fd, 64));
    assert_eq!(read.data.as_deref(), Some(&b" world"[..]));

    // Seek back to the start and read again.
    let seek = kernel.syscall(pid, &SyscallRequest::lseek(fd, 0, whence::SEEK_SET));
    assert_eq!(seek.result, 0);
    let read = kernel.syscall(pid, &SyscallRequest::read(fd, 5));
    assert_eq!(read.data.as_deref(), Some(&b"hello"[..]));

    assert_eq!(kernel.syscall(pid, &SyscallRequest::close(fd)).result, 0);
    assert_eq!(
        kernel.syscall(pid, &SyscallRequest::read(fd, 1)).errno(),
        Some(Errno::EBADF)
    );
}

#[test]
fn open_creat_trunc_append_flags() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("writer");
    let open = kernel.syscall(
        pid,
        &SyscallRequest::open("/tmp/log", flags::O_WRONLY | flags::O_CREAT | flags::O_APPEND),
    );
    let fd = open.result as i32;
    assert!(fd >= 3);
    kernel.syscall(pid, &SyscallRequest::write(fd, b"one ".to_vec()));
    kernel.syscall(pid, &SyscallRequest::write(fd, b"two".to_vec()));
    assert_eq!(kernel.read_file("/tmp/log").unwrap(), b"one two");

    // O_TRUNC clears the file.
    let open = kernel.syscall(
        pid,
        &SyscallRequest::open("/tmp/log", flags::O_WRONLY | flags::O_TRUNC),
    );
    assert!(open.result >= 0);
    assert_eq!(kernel.read_file("/tmp/log").unwrap(), b"");

    // Opening a missing file without O_CREAT fails.
    let missing = kernel.syscall(pid, &SyscallRequest::open_read("/tmp/missing"));
    assert_eq!(missing.errno(), Some(Errno::ENOENT));
}

#[test]
fn device_reads_match_the_microbenchmark_setup() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("micro");
    // close(-1): cheap failing call.
    let close = kernel.syscall(pid, &SyscallRequest::close(-1));
    assert_eq!(close.errno(), Some(Errno::EBADF));

    // write(/dev/null, 512).
    let fd = kernel
        .syscall(pid, &SyscallRequest::open("/dev/null", flags::O_WRONLY))
        .result as i32;
    let write = kernel.syscall(pid, &SyscallRequest::write(fd, vec![0u8; 512]));
    assert_eq!(write.result, 512);

    // read(/dev/null, 512) returns EOF but is charged for the attempt.
    let read_fd = kernel
        .syscall(pid, &SyscallRequest::open_read("/dev/null"))
        .result as i32;
    let read = kernel.syscall(pid, &SyscallRequest::read(read_fd, 512));
    assert_eq!(read.result, 0);
    assert!(read.cost > 1000);

    // /dev/urandom returns random bytes; /dev/zero returns zeroes.
    let urandom = kernel
        .syscall(pid, &SyscallRequest::open_read("/dev/urandom"))
        .result as i32;
    let bytes = kernel.syscall(pid, &SyscallRequest::read(urandom, 16));
    assert_eq!(bytes.result, 16);
    let zero = kernel
        .syscall(pid, &SyscallRequest::open_read("/dev/zero"))
        .result as i32;
    assert_eq!(
        kernel.syscall(pid, &SyscallRequest::read(zero, 4)).data,
        Some(vec![0u8; 4])
    );

    // time() is the cheap virtual call.
    let time = kernel.syscall(pid, &SyscallRequest::time());
    assert_eq!(time.cost, 49);
}

#[test]
fn sockets_accept_and_exchange_data_across_threads() {
    let kernel = Kernel::new();
    let server_pid = kernel.spawn_process("server");
    let client_pid = kernel.spawn_process("client");

    // Server: socket/bind/listen.
    let sock = kernel.syscall(server_pid, &SyscallRequest::socket()).result as i32;
    assert_eq!(
        kernel.syscall(server_pid, &SyscallRequest::bind(sock, 8080)).result,
        0
    );
    assert_eq!(
        kernel
            .syscall(server_pid, &SyscallRequest::listen(sock, 128))
            .result,
        0
    );

    // Client connects from another thread and sends a request.
    let kernel_for_client = kernel.clone();
    let client = std::thread::spawn(move || {
        let fd = kernel_for_client
            .syscall(client_pid, &SyscallRequest::socket())
            .result as i32;
        assert_eq!(
            kernel_for_client
                .syscall(client_pid, &SyscallRequest::connect(fd, 8080))
                .result,
            0
        );
        kernel_for_client.syscall(client_pid, &SyscallRequest::write(fd, b"ping".to_vec()));
        let reply = kernel_for_client.syscall(client_pid, &SyscallRequest::read(fd, 16));
        assert_eq!(reply.data.as_deref(), Some(&b"pong"[..]));
        kernel_for_client.syscall(client_pid, &SyscallRequest::close(fd));
    });

    // Server accepts (blocking) and echoes.
    let accept = kernel.syscall(server_pid, &SyscallRequest::accept(sock));
    assert!(accept.result > 0);
    assert!(accept.fd.is_some());
    let conn = accept.result as i32;
    let request = kernel.syscall(server_pid, &SyscallRequest::read(conn, 16));
    assert_eq!(request.data.as_deref(), Some(&b"ping"[..]));
    kernel.syscall(server_pid, &SyscallRequest::write(conn, b"pong".to_vec()));
    client.join().unwrap();

    // Connecting to an unbound port is refused.
    let fd = kernel.syscall(client_pid, &SyscallRequest::socket()).result as i32;
    assert_eq!(
        kernel
            .syscall(client_pid, &SyscallRequest::connect(fd, 9999))
            .errno(),
        Some(Errno::ECONNREFUSED)
    );
    // Listening without bind is invalid.
    let unbound = kernel.syscall(client_pid, &SyscallRequest::socket()).result as i32;
    assert_eq!(
        kernel
            .syscall(client_pid, &SyscallRequest::listen(unbound, 4))
            .errno(),
        Some(Errno::EINVAL)
    );
}

#[test]
fn fd_transfer_duplicates_descriptors_between_processes() {
    let kernel = Kernel::new();
    let leader = kernel.spawn_process("leader");
    let follower = kernel.spawn_process("follower");
    kernel
        .populate_file("/data/shared.txt", b"shared contents".to_vec())
        .unwrap();
    let fd = kernel
        .syscall(leader, &SyscallRequest::open_read("/data/shared.txt"))
        .result as i32;

    let transferred = kernel.transfer_fd(leader, fd, follower).unwrap();
    let read = kernel.syscall(follower, &SyscallRequest::read(transferred, 6));
    assert_eq!(read.data.as_deref(), Some(&b"shared"[..]));

    assert_eq!(
        kernel.transfer_fd(leader, 999, follower).unwrap_err(),
        Errno::EBADF
    );
}

#[test]
fn identity_fd_transfer_preserves_the_source_number() {
    let kernel = Kernel::new();
    let leader = kernel.spawn_process("leader");
    let joiner = kernel.spawn_process("joiner");
    kernel
        .populate_file("/data/a.txt", b"aaaa".to_vec())
        .unwrap();
    kernel
        .populate_file("/data/b.txt", b"bbbb".to_vec())
        .unwrap();
    // Leader opens two files (fds 3 and 4); the joiner mirrors them at the
    // identical numbers, and its own next allocation lands above them.
    let a = kernel
        .syscall(leader, &SyscallRequest::open_read("/data/a.txt"))
        .result as i32;
    let b = kernel
        .syscall(leader, &SyscallRequest::open_read("/data/b.txt"))
        .result as i32;
    assert_eq!(kernel.transfer_fd_identity(leader, b, joiner).unwrap(), b);
    assert_eq!(kernel.transfer_fd_identity(leader, a, joiner).unwrap(), a);
    let read = kernel.syscall(joiner, &SyscallRequest::read(b, 4));
    assert_eq!(read.data.as_deref(), Some(&b"bbbb"[..]));
    let own = kernel
        .syscall(joiner, &SyscallRequest::open_read("/data/a.txt"))
        .result as i32;
    assert!(own > b, "future allocations stay above identity installs");

    // An occupied slot falls back to the lowest free number.
    let again = kernel.transfer_fd_identity(leader, a, joiner).unwrap();
    assert_ne!(again, a);
    assert_eq!(
        kernel.transfer_fd_identity(leader, 999, joiner).unwrap_err(),
        Errno::EBADF
    );
}

#[test]
fn identity_transfer_of_a_listening_socket_replaces_its_unbound_copy() {
    // A joiner linked before the leader's listen() received the socket
    // while it was still unbound; the re-transfer after listen() must land
    // on the same number, or a promoted joiner accepts on the stale copy.
    let kernel = Kernel::new();
    let leader = kernel.spawn_process("leader");
    let joiner = kernel.spawn_process("joiner");
    let sock = kernel.syscall(leader, &SyscallRequest::socket()).result as i32;
    assert_eq!(
        kernel.transfer_fd_identity(leader, sock, joiner).unwrap(),
        sock
    );
    kernel.syscall(leader, &SyscallRequest::bind(sock, 7311));
    assert_eq!(
        kernel
            .syscall(leader, &SyscallRequest::listen(sock, 16))
            .result,
        0
    );
    assert_eq!(
        kernel.transfer_fd_identity(leader, sock, joiner).unwrap(),
        sock
    );

    let client = kernel.spawn_process("client");
    let conn = kernel.syscall(client, &SyscallRequest::socket()).result as i32;
    assert_eq!(
        kernel
            .syscall(client, &SyscallRequest::connect(conn, 7311))
            .result,
        0
    );
    assert!(kernel.syscall(joiner, &SyscallRequest::accept(sock)).result >= 0);
}

#[test]
fn fork_and_exit_lifecycle() {
    let kernel = Kernel::new();
    let parent = kernel.spawn_process("parent");
    let fork = kernel.syscall(parent, &SyscallRequest::fork());
    assert!(fork.result > i64::from(parent));
    let child = fork.result as u32;
    assert!(kernel.process_alive(child));

    let exit = kernel.syscall(child, &SyscallRequest::exit(3));
    assert_eq!(exit.result, 0);
    assert!(!kernel.process_alive(child));
    assert_eq!(kernel.exit_status(child), Some(3));
    assert!(kernel.process_alive(parent));
}

#[test]
fn signals_are_delivered_and_consumed() {
    let kernel = Kernel::new();
    let victim = kernel.spawn_process("victim");
    let killer = kernel.spawn_process("killer");
    let kill = kernel.syscall(
        killer,
        &SyscallRequest::new(Sysno::Kill, [u64::from(victim), 11, 0, 0, 0, 0]),
    );
    assert_eq!(kill.result, 0);
    assert_eq!(kernel.take_signal(victim), Some(Signal::Sigsegv));
    assert_eq!(kernel.take_signal(victim), None);
}

#[test]
fn console_writes_are_captured() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("logger");
    kernel.syscall(pid, &SyscallRequest::write(1, b"starting up\n".to_vec()));
    kernel.syscall(pid, &SyscallRequest::write(2, b"warning\n".to_vec()));
    assert_eq!(kernel.console_output(pid), b"starting up\nwarning\n");
}

#[test]
fn fcntl_manages_descriptor_flags() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("fcntl");
    let fd = kernel
        .syscall(pid, &SyscallRequest::open("/dev/null", flags::O_RDONLY))
        .result as i32;
    assert_eq!(
        kernel
            .syscall(pid, &SyscallRequest::fcntl(fd, fcntl::F_GETFD, 0))
            .result,
        0
    );
    kernel.syscall(
        pid,
        &SyscallRequest::fcntl(fd, fcntl::F_SETFD, fcntl::FD_CLOEXEC),
    );
    assert_eq!(
        kernel
            .syscall(pid, &SyscallRequest::fcntl(fd, fcntl::F_GETFD, 0))
            .result,
        1
    );
    // Unknown command.
    assert_eq!(
        kernel
            .syscall(pid, &SyscallRequest::fcntl(fd, 99, 0))
            .errno(),
        Some(Errno::EINVAL)
    );
}

#[test]
fn mmap_brk_and_getrandom_are_process_local() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("mem");
    let first = kernel.syscall(pid, &SyscallRequest::mmap(8192)).result;
    let second = kernel.syscall(pid, &SyscallRequest::mmap(8192)).result;
    assert!(second > first);
    let brk = kernel.syscall(pid, &SyscallRequest::new(Sysno::Brk, [0; 6])).result;
    assert!(brk > 0);
    let random = kernel.syscall(pid, &SyscallRequest::getrandom(32));
    assert_eq!(random.result, 32);
    assert_eq!(random.payload_len(), 32);
}

#[test]
fn epoll_reports_ready_descriptors() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("epoll-server");
    let sock = kernel.syscall(pid, &SyscallRequest::socket()).result as i32;
    kernel.syscall(pid, &SyscallRequest::bind(sock, 8200));
    kernel.syscall(pid, &SyscallRequest::listen(sock, 16));
    let epfd = kernel
        .syscall(pid, &SyscallRequest::new(Sysno::EpollCreate1, [0; 6]))
        .result as i32;
    kernel.syscall(
        pid,
        &SyscallRequest::new(Sysno::EpollCtl, [epfd as u64, 1, sock as u64, 0, 0, 0]),
    );
    // Nothing pending yet.
    let wait = kernel.syscall(
        pid,
        &SyscallRequest::new(Sysno::EpollWait, [epfd as u64, 0, 0, 0, 0, 0]),
    );
    assert_eq!(wait.result, 0);
    // A client connection makes the listener ready.
    let _client = kernel.network().connect(8200).unwrap();
    let wait = kernel.syscall(
        pid,
        &SyscallRequest::new(Sysno::EpollWait, [epfd as u64, 0, 0, 0, 0, 0]),
    );
    assert_eq!(wait.result, 1);
}

#[test]
fn nanosleep_advances_the_virtual_clock() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("sleeper");
    let before = kernel.clock().cycles();
    let outcome = kernel.syscall(pid, &SyscallRequest::nanosleep(1_000)); // 1 ms
    assert_eq!(outcome.result, 0);
    let elapsed = kernel.clock().cycles() - before;
    assert!(elapsed >= kernel.cost_model().us_to_cycles(1_000.0));
}

#[test]
fn stats_track_syscall_counts_and_cycles() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("stats");
    for _ in 0..10 {
        kernel.syscall(pid, &SyscallRequest::time());
    }
    kernel.syscall(pid, &SyscallRequest::close(-1));
    let stats = kernel.stats();
    assert_eq!(stats.syscalls.get(&Sysno::Time), Some(&10));
    assert_eq!(stats.syscalls.get(&Sysno::Close), Some(&1));
    assert_eq!(stats.total_syscalls(), 11);
    assert!(stats.total_cycles > 0);
    assert_eq!(stats.processes_spawned, 1);
}

#[test]
fn unknown_process_yields_enoent_not_panic() {
    let kernel = Kernel::new();
    let outcome = kernel.syscall(4242, &SyscallRequest::getuid());
    // Identity calls do not need the process table; fd-based ones do.
    assert!(outcome.result >= 0 || outcome.errno() == Some(Errno::ENOENT));
    let outcome = kernel.syscall(4242, &SyscallRequest::read(3, 10));
    assert_eq!(outcome.errno(), Some(Errno::ENOENT));
}

#[test]
fn pipes_move_bytes_within_a_process() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("piper");
    let pipe = kernel.syscall(pid, &SyscallRequest::new(Sysno::Pipe, [0; 6]));
    assert_eq!(pipe.result, 0);
    let data = pipe.data.unwrap();
    let read_fd = i32::from_le_bytes(data[0..4].try_into().unwrap());
    let write_fd = i32::from_le_bytes(data[4..8].try_into().unwrap());
    kernel.syscall(pid, &SyscallRequest::write(write_fd, b"through the pipe".to_vec()));
    let read = kernel.syscall(pid, &SyscallRequest::read(read_fd, 7));
    assert_eq!(read.data.as_deref(), Some(&b"through"[..]));
}

#[test]
fn blocking_accept_wakes_when_a_client_arrives() {
    let kernel = Kernel::new();
    let pid = kernel.spawn_process("accepting");
    let sock = kernel.syscall(pid, &SyscallRequest::socket()).result as i32;
    kernel.syscall(pid, &SyscallRequest::bind(sock, 8300));
    kernel.syscall(pid, &SyscallRequest::listen(sock, 4));

    let kernel_bg = kernel.clone();
    let acceptor = std::thread::spawn(move || {
        kernel_bg.syscall(pid, &SyscallRequest::accept(sock)).result
    });
    std::thread::sleep(Duration::from_millis(20));
    let _client = kernel.network().connect(8300).unwrap();
    let accepted = acceptor.join().unwrap();
    assert!(accepted > 0);
}
